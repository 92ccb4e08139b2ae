import itertools
import warnings

import numpy as np
import pytest

from contagion import optimizer
from contagion.errors import InvalidParameter
from contagion.netgen import PERIPHERY, build_graph
from contagion.optimizer import (
    BeamConfig,
    DpConfig,
    beam_search,
    build_candidate_pool,
    default_codebook,
    estimate_spread,
    dp_policy,
)
from contagion.updyn import SimParams, self_propagation
from tests.conftest import uniform_feature_graph
from tests.oracles import candidate_pool, enumerate_spread_distribution


def test_pool_seed_only(pa_graph_small):
    pool = build_candidate_pool(pa_graph_small, 7, K=0, top_deg=0, core_targets=0)
    assert pool.nodes == (7,)
    assert len(pool.candidates) == 2
    kinds = {c.kind for c in pool.candidates}
    assert kinds == {"own", "neighborhood"}


def test_pool_full_graph_when_k_exceeds_diameter(pa_graph_small):
    pool = build_candidate_pool(pa_graph_small, 0, K=pa_graph_small.n, top_deg=0,
                                core_targets=0)
    assert pool.nodes == tuple(range(pa_graph_small.n))


def test_pool_neighborhood_vector_on_star():
    g = uniform_feature_graph(4, [(0, 1), (0, 2), (0, 3)], dim=2)
    # leaf 1's neighborhood-sum vector: normalize(x_1 + x_0); all features equal
    pool = build_candidate_pool(g, 1, K=0, top_deg=0, core_targets=0)
    hood = [c for c in pool.candidates if c.kind == "neighborhood"][0]
    expected = (g.features.rows[1] + g.features.rows[0])
    expected = expected / np.linalg.norm(expected)
    assert np.allclose(hood.vec, expected)
    assert np.linalg.norm(hood.vec) == pytest.approx(1.0, abs=1e-9)


def test_pool_includes_core_paths_and_top_degree(pa_graph_small):
    g = pa_graph_small
    pool = build_candidate_pool(g, 199, K=1, top_deg=3, core_targets=2)
    deg = g.raw.degree
    top3 = sorted(range(g.n), key=lambda u: (-deg[u], u))[:3]
    for u in top3:
        assert u in pool.nodes
    assert 199 in pool.nodes
    # all vectors unit norm, pool deduplicated
    assert len(set(pool.nodes)) == len(pool.nodes)
    for c in pool.candidates:
        assert np.linalg.norm(c.vec) == pytest.approx(1.0, abs=1e-9)


def _three_components():
    """Hub 0 with leaves 1-4 holds both core nodes; the path 5-9 has none;
    node 10 is isolated."""
    return uniform_feature_graph(11, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4),
                                      (5, 6), (6, 7), (7, 8), (8, 9)])


@pytest.mark.parametrize("graph, seeds", [
    ("pa60", (0, 17, 59)),
    ("pa200", (0, 7, 57, 123, 199)),
    ("components", tuple(range(11))),
])
def test_pool_matches_bfs_oracle(graph, seeds, pa_graph_small):
    g = {"pa60": lambda: build_graph(60, 2, 4, seed=3), "pa200": lambda: pa_graph_small,
         "components": _three_components}[graph]()
    if graph == "components":
        assert set(np.flatnonzero(g.segments == "core")) == {0, 1}
    for v, K, top_deg, core_targets in itertools.product(seeds, (0, 1, 2, 5), (0, 3, 10),
                                                         (None, 0, 2, 7)):
        pool = build_candidate_pool(g, v, K, top_deg, core_targets=core_targets)
        nodes, expected = candidate_pool(g, v, K, top_deg, core_targets)
        assert pool.nodes == nodes
        assert len(pool.candidates) == len(expected)
        for c, (node, kind, vec) in zip(pool.candidates, expected):
            assert (c.node, c.kind) == (node, kind)
            assert c.vec.dtype == vec.dtype and c.vec.tobytes() == vec.tobytes()


def test_pool_rejects_bad_inputs(pa_graph_small):
    with pytest.raises(InvalidParameter):
        build_candidate_pool(pa_graph_small, -1, K=1, top_deg=0)
    with pytest.raises(InvalidParameter):
        build_candidate_pool(pa_graph_small, 0, K=-1, top_deg=0)


def test_estimate_spread_gamma_zero(pa_graph_small):
    g = pa_graph_small
    est = estimate_spread(g, self_propagation(g, 3), 3, M=10,
                          params=SimParams(gamma=0.0), rng_seed=5)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_estimate_spread_single_run(pa_graph_small):
    g = pa_graph_small
    est = estimate_spread(g, self_propagation(g, 3), 3, M=1,
                          params=SimParams(), rng_seed=5)
    assert est.stderr == 0.0
    assert est.mean == float(int(est.mean))  # one run: mean is that spread


def test_estimate_spread_paired_identical(pa_graph_small):
    g = pa_graph_small
    c = self_propagation(g, 10)
    a = estimate_spread(g, c, 10, M=25, params=SimParams(), rng_seed=9)
    b = estimate_spread(g, c, 10, M=25, params=SimParams(), rng_seed=9)
    assert a == b


def test_estimate_spread_matches_enumeration(path4_uniform):
    g = path4_uniform
    params = SimParams(alpha=0.5, beta=0.5, gamma=1.0, epsilon=1, max_steps=4)
    c = self_propagation(g, 0)
    exact = enumerate_spread_distribution(g, c.vec, [0], params)
    expected = sum(size * p for size, p in exact.items())
    est = estimate_spread(g, c, 0, M=100_000, params=params, rng_seed=31)
    assert abs(est.mean - expected) <= 3 * est.stderr + 1e-9


def beam_fixture(pa_graph_small):
    g = pa_graph_small
    pool = build_candidate_pool(g, 42, K=1, top_deg=2, core_targets=1)
    params = SimParams(epsilon=3)
    return g, pool, params


def test_beam_eps_zero_returns_best_initial(pa_graph_small):
    g, pool, params = beam_fixture(pa_graph_small)
    cfg = BeamConfig(width=2, rounds=2, eps_perturb=0.0, sims=20, spawn=2)
    result = beam_search(g, 42, pool, cfg, params, rng_seed=1)
    ranking = beam_search(
        g, 42, pool, BeamConfig(width=2, rounds=0, eps_perturb=0.0, sims=20, spawn=2),
        params, rng_seed=1,
    )
    assert np.array_equal(result.best_vec, ranking.best_vec)
    assert result.best_score == ranking.best_score


def test_beam_rounds_zero_is_pure_ranking(pa_graph_small):
    g, pool, params = beam_fixture(pa_graph_small)
    cfg = BeamConfig(width=3, rounds=0, eps_perturb=0.1, sims=15, spawn=4)
    result = beam_search(g, 42, pool, cfg, params, rng_seed=2)
    assert len(result.round_best) == 1
    # equals the max over individually scored pool vectors
    best = max(
        estimate_spread(g, c.vec / np.linalg.norm(c.vec), 42, 15, params, 2).mean
        for c in pool.candidates
    )
    assert result.best_score == pytest.approx(best)


def test_beam_scores_non_decreasing(pa_graph_small):
    g, pool, params = beam_fixture(pa_graph_small)
    cfg = BeamConfig(width=3, rounds=3, eps_perturb=0.15, sims=15, spawn=4)
    result = beam_search(g, 42, pool, cfg, params, rng_seed=3)
    assert len(result.round_best) == 4
    assert np.all(np.diff(result.round_best) >= 0)


@pytest.mark.parametrize("eps", [np.inf, np.nan, -0.1])
def test_beam_config_refuses_bad_perturbation(eps):
    with pytest.raises(InvalidParameter, match="perturb"):
        BeamConfig(eps_perturb=eps)


def test_beam_perturbation_overflow_names_perturb(pa_graph_small):
    # the scale is finite, but each child's squared norm overflows
    g, pool, params = beam_fixture(pa_graph_small)
    cfg = BeamConfig(width=2, rounds=1, eps_perturb=1e200, sims=2, spawn=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter) as err:
            beam_search(g, 42, pool, cfg, params, rng_seed=3)
    assert err.value.field == "perturb"


def test_beam_empty_pool_errors(pa_graph_small):
    from contagion.optimizer import CandidatePool

    with pytest.raises(InvalidParameter):
        beam_search(pa_graph_small, 0, CandidatePool(nodes=(), candidates=()),
                    BeamConfig(), SimParams(), 0)


def test_default_codebook(pa_graph_small):
    book = default_codebook(pa_graph_small, 5, rng_seed=3)
    assert len(book) == 4
    for vec in book:
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)


def test_dp_single_entry_recommends_it(pa_graph_small):
    g = pa_graph_small
    cfg = DpConfig(codebook=(g.features.rows[0].copy(),), horizon=2, sims_per_estimate=3)
    result = dp_policy(g, 0, cfg, SimParams(epsilon=2), rng_seed=4)
    assert result.recommendation == 0


def test_dp_zero_rewards_zero_values(pa_graph_small):
    g = pa_graph_small
    cfg = DpConfig(codebook=default_codebook(g, 0, 1), horizon=2, sims_per_estimate=2)
    result = dp_policy(g, 0, cfg, SimParams(gamma=0.0, epsilon=1), rng_seed=4)
    assert np.all(result.values == 0.0)
    assert np.all(result.immediate_reward == 0.0)


def test_dp_horizon_zero(pa_graph_small):
    g = pa_graph_small
    cfg = DpConfig(codebook=default_codebook(g, 3, 1), horizon=0, sims_per_estimate=3)
    result = dp_policy(g, 3, cfg, SimParams(epsilon=2), rng_seed=6)
    assert result.values.shape == (0, 4, 3)
    seed_seg = ["core", "intermediate", "periphery"].index(str(g.segments[3]))
    assert result.recommendation == int(np.argmax(result.immediate_reward[:, seed_seg]))


def test_dp_probes_of_a_state_share_one_seed_array(pa_graph_small, monkeypatch):
    # iter_cascades checks a seed list once per stretch of the same object,
    # so a visited state's R probes must hold one array, not R slices of it
    g = pa_graph_small
    calls, real = [], optimizer.iter_cascades

    def capture(graph, runs, params, tally=None):
        runs = list(runs)
        calls.append(runs)
        return real(graph, runs, params, tally)

    monkeypatch.setattr(optimizer, "iter_cascades", capture)
    cfg = DpConfig(codebook=default_codebook(g, 57, 5), horizon=3, sims_per_estimate=3)
    dp_policy(g, 57, cfg, SimParams(gamma=0.15, max_steps=30), rng_seed=5)
    R = len(cfg.codebook)
    probes = calls[1]
    assert len(probes) > R and len(probes) % R == 0
    for start in range(0, len(probes), R):
        seeds = [probe[1] for probe in probes[start:start + R]]
        assert all(s is seeds[0] for s in seeds)


def test_dp_config_validation(pa_graph_small):
    with pytest.raises(InvalidParameter):
        DpConfig(codebook=())
    with pytest.raises(InvalidParameter):
        DpConfig(codebook=(np.array([2.0, 0.0]),))


def test_beam_never_worse_than_self_propagation(pa_graph_small):
    """The seed's own feature sits in the pool, so the paired winner can
    never score below the self-propagation policy."""
    g = pa_graph_small
    periphery = [v for v in range(g.n) if g.segments[v] == PERIPHERY]
    v = periphery[0]
    pool = build_candidate_pool(g, v, K=1, top_deg=2, core_targets=1)
    cfg = BeamConfig(width=2, rounds=1, eps_perturb=0.1, sims=30, spawn=3)
    result = beam_search(g, v, pool, cfg, SimParams(), rng_seed=7)
    baseline = estimate_spread(g, self_propagation(g, v), v, cfg.sims, SimParams(), rng_seed=7)
    assert result.best_score >= baseline.mean
