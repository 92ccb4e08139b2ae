import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tests.oracles import reference_ic


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


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_constant_theta(theta):
    # a finite theta outside [0, 1] stays a valid constant threshold
    with pytest.raises(InvalidParameter, match="theta"):
        BaselineConfig(model="lt", lt_dist=CONSTANT, lt_theta=theta)


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


def _assert_same_run(rec, ref):
    assert rec.activation_time.dtype == ref.activation_time.dtype
    assert np.array_equal(rec.activation_time, ref.activation_time)
    assert rec.new_per_step.dtype == ref.new_per_step.dtype
    assert np.array_equal(rec.new_per_step, ref.new_per_step)
    assert rec.final_spread == ref.final_spread
    assert rec.converged_at == ref.converged_at
    assert rec.seed_set == ref.seed_set
    assert json.dumps(rec.to_dict()).encode() == json.dumps(ref.to_dict()).encode()


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.9])
@pytest.mark.parametrize("where", ["hub", "periphery"])
def test_ic_matches_frontier_oracle(pa_graph_small, where, p):
    g = pa_graph_small
    degree = g.raw.degree
    v = int(np.argmax(degree)) if where == "hub" else int(np.flatnonzero(degree == degree.min())[-1])
    for rng_seed in range(50):
        _assert_same_run(run_ic(g, [v], p, rng_seed), reference_ic(g, [v], p, rng_seed))


@st.composite
def ic_cases(draw):
    """Small graphs with isolated nodes, and a seed list in drawn order."""
    shape = draw(st.sampled_from(["random", "crossed", "star", "triangle", "shared"]))
    isolated = draw(st.integers(0, 2))
    if shape == "random":
        n = draw(st.integers(1, 12))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n))
        edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
        must = []
    elif shape == "crossed":
        # seed 0's neighbours all have larger labels than seed 1's, so round
        # 1's hits come out of ascending order; each has leaves of its own
        k, leaves = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        low, high = range(2, 2 + k), range(2 + k, 2 + 2 * k)
        edges = [(1, v) for v in low] + [(0, v) for v in high]
        n, must = 2 + 2 * k, [0, 1]
        for v in [*low, *high]:
            edges += [(v, n + j) for j in range(leaves)]
            n += leaves
    elif shape == "star":
        n = draw(st.integers(2, 8))
        edges, must = [(0, i) for i in range(1, n)], []
    elif shape == "triangle":
        n, edges, must = 3, [(0, 1), (0, 2), (1, 2)], []
    else:
        # frontier nodes 0 and 1 share the inactive neighbours 2..n-1
        n = draw(st.integers(3, 9))
        edges = [(a, b) for a in (0, 1) for b in range(2, n)]
        edges += [(a, b) for a, b in draw(st.lists(
            st.tuples(st.integers(2, n - 1), st.integers(2, n - 1)), max_size=n)) if a < b]
        edges, must = sorted(set(edges)), [0, 1]
    n += isolated
    g = uniform_feature_graph(n, edges)
    rest = [v for v in range(n) if v not in must]
    extra = draw(st.lists(st.sampled_from(rest), unique=True, max_size=3)) if rest else []
    seeds = draw(st.permutations(must + extra)) if must else draw(
        st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=4))
    # bare floats crowd the ends of [0, 1], where the order of the draws
    # barely shows; the middle range makes deep cascades with mixed outcomes
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.floats(0.4, 0.8)))
    return g, seeds, p, draw(st.integers(0, 2**32))


@settings(max_examples=600, deadline=None)
@given(ic_cases())
def test_ic_matches_frontier_oracle_generated(case):
    g, seeds, p, rng_seed = case
    _assert_same_run(run_ic(g, seeds, p, rng_seed), reference_ic(g, seeds, p, rng_seed))


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


@pytest.mark.parametrize("bad", [-1, np.int64(-3), 2.7, True, "5", float("nan"), None],
                         ids=repr)
def test_baseline_rng_seed_checked(pa_graph_small, bad):
    # a fractional or boolean seed was truncated and run, and a negative or
    # NaN one ended in numpy's ValueError
    g = pa_graph_small
    with pytest.raises(InvalidParameter, match="rng_seed"):
        run_ic(g, [0], 0.3, bad)
    with pytest.raises(InvalidParameter, match="rng_seed"):
        run_lt(g, [0], BaselineConfig(model=LT), bad)


def test_baseline_rng_seed_accepts_numpy_integers(pa_graph_small):
    g = pa_graph_small
    for seed in (np.int64(11), np.uint64(11)):
        ic, lt = run_ic(g, [0], 0.3, seed), run_lt(g, [0], BaselineConfig(model=LT), seed)
        assert ic.to_dict() == run_ic(g, [0], 0.3, 11).to_dict()
        assert lt.to_dict() == run_lt(g, [0], BaselineConfig(model=LT), 11).to_dict()
        assert type(ic.rng_seed) is int and type(lt.rng_seed) is int
