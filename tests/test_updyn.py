import logging

import numpy as np
import pytest

from contagion.errors import InvalidParameter
from contagion.updyn import (
    THIN_MARGIN,
    TIE_EPS,
    Propagation,
    SimParams,
    activation_prob,
    affinity,
    as_propagation,
    drift_update,
    global_influence,
    init_state,
    local_influence,
    run_cascade,
    run_cascades,
    self_propagation,
    step,
    step_probs_matrix,
)
from contagion.netgen import assign_edge_weights, make_unit_features
from tests.conftest import Draws, raw_from_edges, uniform_feature_graph
from tests.oracles import (
    DriftReference,
    empirical_spread_distribution,
    enumerate_spread_distribution,
    naive_activation_prob,
    total_variation,
)


def two_node_graph():
    return uniform_feature_graph(2, [(0, 1)])


def test_propagation_validation():
    Propagation(vec=np.array([1.0, 0.0]))
    with pytest.raises(InvalidParameter):
        Propagation(vec=np.array([1.0, 1.0]))
    p = Propagation.from_vector([3.0, 4.0])
    assert np.allclose(p.vec, [0.6, 0.8])
    with pytest.raises(InvalidParameter):
        Propagation.from_vector([0.0, 0.0])


@pytest.mark.parametrize("vec", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0]])
def test_propagation_rejects_non_finite(vec):
    with pytest.raises(InvalidParameter):
        Propagation(vec=np.array(vec))
    with pytest.raises(InvalidParameter):
        Propagation.from_vector(vec)


def test_simparams_validation():
    with pytest.raises(InvalidParameter):
        SimParams(alpha=0.7, beta=0.7)
    with pytest.raises(InvalidParameter):
        SimParams(epsilon=0)
    with pytest.raises(InvalidParameter):
        SimParams(gamma=-0.1)
    with pytest.raises(InvalidParameter):
        SimParams(viral_fraction=0.0)
    for bad in ({"epsilon": 2.5}, {"epsilon": True}, {"max_steps": 3.0}, {"max_steps": True}):
        with pytest.raises(InvalidParameter):
            SimParams(**bad)
    p = SimParams()
    assert p.global_weight == pytest.approx(1.0 / 3.0)
    assert p.resolve_max_steps(1000) == 10000


@pytest.mark.parametrize("gamma", [np.nan, np.inf])
def test_simparams_rejects_non_finite_gamma(gamma):
    with pytest.raises(InvalidParameter):
        SimParams(gamma=gamma)


def test_simparams_dict_roundtrip():
    p = SimParams(alpha=0.2, beta=0.3, gamma=0.4, epsilon=5, drift=0.1, max_steps=77)
    assert SimParams.from_dict(p.to_dict()) == p


def test_affinity_endpoints():
    c = Propagation(vec=np.array([1.0, 0.0]))
    assert affinity(c, np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert affinity(c, np.array([0.0, 1.0])) == pytest.approx(0.5)
    assert affinity(c, np.array([-1.0, 0.0])) == pytest.approx(0.0)


def test_local_and_global_influence_endpoints(path4_uniform):
    g = path4_uniform
    c = self_propagation(g, 0)
    params = SimParams()
    state = init_state(g, c, [0, 2], params)
    # node 1 has both neighbors (0 and 2) active
    assert local_influence(1, state, g) == pytest.approx(1.0)
    # node 3's only neighbor is 2 (active): full mass as well
    assert local_influence(3, state, g) == pytest.approx(1.0)
    state2 = init_state(g, c, [0], params)
    # node 2 has neighbors {1, 3}, none active
    assert local_influence(2, state2, g) == pytest.approx(0.0)
    # node 1: active neighbor 0 holds exactly half of its weighted degree
    assert local_influence(1, state2, g) == pytest.approx(0.5)
    assert global_influence(state2, g.n) == pytest.approx(0.25)
    assert global_influence(state, g.n) == pytest.approx(0.5)


def test_activation_prob_gamma_zero(path4_uniform):
    g = path4_uniform
    c = self_propagation(g, 0)
    state = init_state(g, c, [0], SimParams())
    assert activation_prob(1, state, c, g, SimParams(gamma=0.0)) == 0.0


def test_activation_prob_full_alignment(path4_uniform):
    g = path4_uniform
    c = self_propagation(g, 0)
    state = init_state(g, c, [0], SimParams())
    p = SimParams(alpha=1.0, beta=0.0, gamma=1.0)
    assert activation_prob(2, state, c, g, p) == pytest.approx(1.0)


def test_activation_prob_clique_value():
    # bridge node adjacent to one active seed plus a (k-1)-clique, k = 10
    from contagion.analytics import make_clique_scenario_graph

    g, c = make_clique_scenario_graph(10, dot=1.0)
    params = SimParams(alpha=0.5, beta=0.5, gamma=1.0, epsilon=1)
    state = init_state(g, c, [0], params)
    assert activation_prob(1, state, c, g, params) == pytest.approx(22.0 / 40.0)


def test_step_no_inactive(path4_uniform):
    g = path4_uniform
    c = self_propagation(g, 0)
    params = SimParams()
    state = init_state(g, c, [0, 1, 2, 3], params)
    rng = np.random.default_rng(0)
    assert step(state, c, g, params, rng) == 0
    assert state.stable_steps == 1


def test_step_gamma_zero(path4_uniform):
    g = path4_uniform
    c = self_propagation(g, 0)
    params = SimParams(gamma=0.0)
    state = init_state(g, c, [0], params)
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert step(state, c, g, params, rng) == 0
    assert state.active_count == 1


def test_step_bernoulli_semantics_two_node():
    # P(other node activates at step 1) equals its activation probability
    g = two_node_graph()
    c = self_propagation(g, 0)
    params = SimParams(alpha=0.5, beta=0.5, gamma=0.3, epsilon=1)
    # analytic: aff = 1, li = 1 -> p = 0.3
    trials = 100_000
    records = run_cascades(g, [(c, [0], i) for i in range(trials)], params)
    hits = sum(rec.activation_time[1] == 1 for rec in records)
    p = 0.3
    sigma = np.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 3 * sigma


def test_run_cascade_gamma_zero(path4_uniform):
    g = path4_uniform
    params = SimParams(gamma=0.0, epsilon=4)
    rec = run_cascade(g, self_propagation(g, 1), [1], params, rng_seed=0)
    assert rec.final_spread == 1
    assert rec.converged_at == 4  # epsilon silent steps
    assert not rec.hit_cap
    assert rec.new_per_step.sum() == rec.final_spread


def test_run_cascade_full_activation_one_step_spontaneous(path4_uniform):
    # identical features, c aligned, alpha=1, gamma=1: every node at prob 1;
    # without the contact gate the whole graph activates in a single step
    g = path4_uniform
    params = SimParams(alpha=1.0, beta=0.0, gamma=1.0, epsilon=2, require_contact=False)
    rec = run_cascade(g, self_propagation(g, 0), [0], params, rng_seed=1)
    assert rec.final_spread == 4
    assert rec.new_per_step[1] == 3
    assert np.all(rec.activation_time <= 1)


def test_run_cascade_full_activation_contact_wavefront(path4_uniform):
    # same setup with the contact gate: activation sweeps one hop per step
    g = path4_uniform
    params = SimParams(alpha=1.0, beta=0.0, gamma=1.0, epsilon=2)
    rec = run_cascade(g, self_propagation(g, 0), [0], params, rng_seed=1)
    assert rec.final_spread == 4
    assert list(rec.activation_time) == [0, 1, 2, 3]


def test_run_cascade_rejects_bad_seeds(path4_uniform):
    g = path4_uniform
    c = self_propagation(g, 0)
    with pytest.raises(InvalidParameter):
        run_cascade(g, c, [], SimParams(), 0)
    with pytest.raises(InvalidParameter):
        run_cascade(g, c, [0, 0], SimParams(), 0)
    with pytest.raises(InvalidParameter):
        run_cascade(g, c, [7], SimParams(), 0)


def test_run_cascade_deterministic(pa_graph_small):
    g = pa_graph_small
    c = self_propagation(g, 3)
    params = SimParams()
    a = run_cascade(g, c, [3], params, rng_seed=99)
    b = run_cascade(g, c, [3], params, rng_seed=99)
    assert np.array_equal(a.activation_time, b.activation_time)
    assert np.array_equal(a.new_per_step, b.new_per_step)
    assert a.final_spread == b.final_spread
    assert a.converged_at == b.converged_at


def test_run_cascade_monotone_bookkeeping(pa_graph_small):
    g = pa_graph_small
    rec = run_cascade(g, self_propagation(g, 0), [0], SimParams(), rng_seed=4)
    assert rec.new_per_step.sum() == rec.final_spread
    assert rec.final_spread >= 1
    # activation times of activated nodes never exceed converged_at
    times = rec.activation_time[rec.activation_time >= 0]
    assert times.max() <= rec.converged_at
    assert (rec.new_per_step >= 0).all()
    # per-step counts match the activation-time histogram
    for t, cnt in enumerate(rec.new_per_step):
        assert np.sum(rec.activation_time == t) == cnt


def test_run_cascade_hit_cap(path4_uniform):
    g = path4_uniform
    params = SimParams(alpha=0.5, beta=0.5, gamma=0.2, epsilon=50, max_steps=3)
    rec = run_cascade(g, self_propagation(g, 0), [0], params, rng_seed=0)
    assert rec.hit_cap
    assert rec.converged_at == 3


def test_step_probs_matrix_trivial_states(pa_graph_small):
    g = pa_graph_small
    c = self_propagation(g, 0)
    params = SimParams(alpha=0.4, beta=0.3, gamma=0.8)
    # all active: every entry gamma*(alpha*Fhat + beta + gw)
    state = init_state(g, c, list(range(g.n)), params)
    probs = step_probs_matrix(state, c, g, params)
    fhat = (1.0 + g.features.rows @ c.vec) / 2.0
    expected = params.gamma * (params.alpha * fhat + params.beta + params.global_weight)
    assert np.allclose(probs, np.clip(expected, 0, 1), atol=1e-15)


def test_step_probs_matrix_all_zeros_state(pa_graph_small):
    # with nothing active the local term contributes zero mass after scaling
    # and the global term vanishes, leaving gamma * alpha * Fhat
    g = pa_graph_small
    c = self_propagation(g, 0)
    params = SimParams(alpha=0.4, beta=0.3, gamma=0.8)
    state = init_state(g, c, [0], params)
    state.active[0] = False
    state.active_count = 0
    state.activation_time[0] = -1
    state.active_nbr_count[:] = 0
    state.active_wsum[:] = 0.0
    probs = step_probs_matrix(state, c, g, params)
    fhat = (1.0 + g.features.rows @ c.vec) / 2.0
    assert np.allclose(probs, params.gamma * params.alpha * fhat, atol=1e-15)


def test_step_probs_matrix_equals_scalar_loop(pa_graph_small):
    g = pa_graph_small
    rng = np.random.default_rng(123)
    params = SimParams(alpha=0.3, beta=0.5, gamma=0.7)
    for trial in range(100):
        c = Propagation.from_vector(rng.standard_normal(g.features.k))
        n_active = int(rng.integers(1, g.n))
        seeds = rng.choice(g.n, size=n_active, replace=False)
        state = init_state(g, c, seeds, params)
        mat = step_probs_matrix(state, c, g, params)
        loop = np.array([activation_prob(v, state, c, g, params) for v in range(g.n)])
        assert np.max(np.abs(mat - loop)) < 1e-12


def test_batched_activation_matches_node_by_node(pa_graph_small):
    # one scatter over many rows adds to each neighbor in the order of the
    # given nodes, so the sums equal a node-by-node loop bit for bit
    g = pa_graph_small
    nodes = np.random.default_rng(2).permutation(g.n)[:150]
    state = init_state(g, self_propagation(g, int(nodes[0])), nodes, SimParams())
    wsum = np.zeros(g.n)
    count = np.zeros(g.n, dtype=np.int64)
    for v in nodes:
        row = slice(g.raw.indptr[v], g.raw.indptr[v + 1])
        wsum[g.raw.indices[row]] += g.weights.data[row]
        count[g.raw.indices[row]] += 1
    assert np.array_equal(state.active_wsum, wsum)
    assert np.array_equal(state.active_nbr_count, count)


def test_scalar_paths_match_naive_oracle(pa_graph_small):
    g = pa_graph_small
    rng = np.random.default_rng(5)
    params = SimParams(alpha=0.25, beta=0.45, gamma=0.9)
    c = Propagation.from_vector(rng.standard_normal(g.features.k))
    seeds = rng.choice(g.n, size=17, replace=False)
    state = init_state(g, c, seeds, params)
    active = frozenset(int(s) for s in seeds)
    for v in range(0, g.n, 7):
        if state.active[v]:
            continue
        assert activation_prob(v, state, c, g, params) == pytest.approx(
            naive_activation_prob(g, active, v, c.vec, params), abs=1e-12
        )


def test_spread_distribution_matches_enumeration(path4_uniform):
    g = path4_uniform
    c = self_propagation(g, 0)
    params = SimParams(alpha=0.5, beta=0.5, gamma=1.0, epsilon=1, max_steps=4)
    exact = enumerate_spread_distribution(g, c.vec, [0], params)
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    runs = 100_000
    records = run_cascades(g, [(c, [0], i) for i in range(runs)], params)
    spreads = [rec.final_spread for rec in records]
    tv = total_variation(exact, empirical_spread_distribution(spreads))
    assert tv < 0.02


def test_drift_update_basics():
    c = Propagation(vec=np.array([0.0, 1.0]))
    x = np.array([1.0, 0.0])
    assert np.allclose(drift_update(x, c, 0.0), x)
    assert np.allclose(drift_update(x, c, 1.0), c.vec)
    out = drift_update(x, c, 0.3)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)


def test_drift_update_antipodal_guard():
    c = Propagation(vec=np.array([-1.0, 0.0]))
    x = np.array([1.0, 0.0])
    out = drift_update(x, c, 0.5)
    assert np.allclose(out, x)


def test_drift_cascade_stays_consistent(pa_graph_small):
    g = pa_graph_small
    c = self_propagation(g, 2)
    params = SimParams(alpha=0.4, beta=0.4, gamma=0.5, epsilon=3, drift=0.5)
    weights, degree, rows = g.weights.data.copy(), g.weighted_degree.copy(), g.features.rows.copy()
    rec = run_cascade(g, c, [2], params, rng_seed=8)
    assert rec.final_spread > 1
    assert rec.new_per_step.sum() == rec.final_spread
    # graph tables untouched by the run, which drifts its own copies
    assert np.array_equal(g.weights.data, weights)
    assert np.array_equal(g.weighted_degree, degree)
    assert np.array_equal(g.features.rows, rows)


def test_drift_state_matrix_consistency(pa_graph_small):
    # after drift rewrites weights, the matrix oracle still matches the loop
    g = pa_graph_small
    c = self_propagation(g, 1)
    params = SimParams(alpha=0.4, beta=0.4, gamma=0.6, epsilon=2, drift=0.7)
    state = init_state(g, c, [1, 5, 9], params)
    rng = np.random.default_rng(17)
    for _ in range(3):
        step(state, c, g, params, rng)
    if state.owns_live:
        mat = step_probs_matrix(state, c, g, params)
        loop = np.array([activation_prob(v, state, c, g, params) for v in range(g.n)])
        assert np.max(np.abs(mat - loop)) < 1e-12


def test_init_state_owns_live_arrays_under_drift(pa_graph_small):
    g = pa_graph_small
    state = init_state(g, self_propagation(g, 1), [1], SimParams(drift=0.3))
    assert state.owns_live
    for live, graph in ((state.live_degree, g.weighted_degree),
                        (state.live_features, g.features.rows),
                        (state.live_weights, g.weights.data)):
        assert not np.shares_memory(live, graph)
        assert np.array_equal(live, graph)


def test_drift_step_on_state_built_without_drift_raises(pa_graph_small):
    # such a state shares the graph's arrays, which drift would rewrite
    g = pa_graph_small
    c = self_propagation(g, 1)
    state = init_state(g, c, [1, 5, 9], SimParams())
    weights, degree, rows = g.weights.data.copy(), g.weighted_degree.copy(), g.features.rows.copy()
    with pytest.raises(InvalidParameter):
        step(state, c, g, SimParams(gamma=1.0, drift=0.5), np.random.default_rng(0))
    assert np.array_equal(g.weights.data, weights)
    assert np.array_equal(g.weighted_degree, degree)
    assert np.array_equal(g.features.rows, rows)


def test_step_drift_matches_node_by_node_oracle(pa_graph_small):
    # without the contact rule a step activates many nodes at once, adjacent
    # ones among them; each drift sees the features its earlier neighbours
    # took in the same step
    g = pa_graph_small
    params = SimParams(gamma=1.0, drift=0.4, require_contact=False)
    c = Propagation.from_vector(np.random.default_rng(2).standard_normal(g.features.k))
    state = init_state(g, c, [0, 57], params)
    ref = DriftReference(g, c, params.drift, [0, 57])
    rng = np.random.default_rng(3)
    for t in range(1, 6):
        step(state, c, g, params, rng)
        new = np.flatnonzero(state.activation_time == t)
        if t == 1:
            assert np.isin(g.raw.edges, new).all(axis=1).sum() > 5
        ref.advance(new, t)
        assert ref.matches(state.activation_time, state.live_degree, state.live_features,
                           state.live_weights, state.active_wsum), t


def test_drift_antipodal_nodes_keep_their_features(caplog):
    # path 0-1-2-3: nodes 1 and 3 are exactly antipodal to c, so at lambda
    # 1/2 their mix is the zero vector; each keeps its feature with one
    # warning, while node 2, drifting in the same step, moves
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    g = assign_edge_weights(raw_from_edges(4, [(0, 1), (1, 2), (2, 3)]), make_unit_features(rows))
    c = Propagation(vec=np.array([-1.0, 0.0]))
    params = SimParams(gamma=1.0, drift=0.5, require_contact=False)
    state = init_state(g, c, [0], params)
    with caplog.at_level(logging.WARNING, logger="contagion.updyn"):
        assert step(state, c, g, params, Draws(-1.0)) == 3
    assert sum("antipodal" in r.getMessage() for r in caplog.records) == 2
    assert np.array_equal(state.live_features[[0, 1, 3]], rows[[0, 1, 3]])
    assert np.allclose(state.live_features[2], np.array([-1.0, 1.0]) / np.sqrt(2.0))
    ref = DriftReference(g, c, params.drift, [0])
    ref.advance([1, 2, 3], 1)
    assert ref.matches(state.activation_time, state.live_degree, state.live_features,
                       state.live_weights, state.active_wsum)


def test_drift_to_zero_tie_mass_keeps_other_terms():
    # path 0-1-2: full drift turns node 1 into c, antipodal to node 2, so the
    # only weight at node 2 drops to zero; its local term vanishes while the
    # global term still drives it
    rows = np.array([[0.0, 1.0], [0.0, 1.0], [-1.0, 0.0]])
    g = assign_edge_weights(raw_from_edges(3, [(0, 1), (1, 2)]), make_unit_features(rows))
    c = Propagation.from_vector([1.0, 0.0])
    params = SimParams(alpha=0.0, beta=0.5, gamma=1.0, drift=1.0)

    state = init_state(g, c, [0], params)
    assert step(state, c, g, params, Draws(-1.0)) == 1  # only node 1 is in contact
    assert state.live_degree[2] == 0.0

    assert local_influence(2, state, g) == 0.0
    expected = 0.5 * state.active_count / g.n
    assert activation_prob(2, state, c, g, params) == pytest.approx(expected)
    assert step_probs_matrix(state, c, g, params)[2] == pytest.approx(expected)
    assert step(state, c, g, params, Draws(expected - 1e-9)) == 1
    assert state.activation_time[2] == 2


def test_thinning_cap_clears_a_probability_rounded_above_gamma(path4_uniform):
    # without drift a probability passes gamma only by rounding; with the
    # active mass a few ulps above the degree a draw of exactly gamma still
    # lies below it and must fire, so the cap must sit above gamma
    g = path4_uniform
    c = self_propagation(g, 0)
    params = SimParams(alpha=0.5, beta=0.5, gamma=0.05)
    state = init_state(g, c, [0], params)
    assert not state.owns_live and state.affinity_hat[1] == 1.0
    degree = state.live_degree[1]
    state.active_wsum[1] = degree + 4 * np.spacing(degree)
    prob = params.gamma * (0.5 * 1.0 + 0.5 * (state.active_wsum[1] / degree))
    assert prob > params.gamma
    assert step(state, c, g, params, Draws(params.gamma)) == 1
    assert state.activation_time[1] == 1


def test_drift_rows_are_not_thinned(path4_uniform):
    # under drift a degree just above TIE_EPS can lift the local term far
    # above 1, so a draw above the cap must still get its probability
    g = path4_uniform
    c = self_propagation(g, 0)
    params = SimParams(alpha=0.5, beta=0.5, gamma=0.05, drift=0.5)
    state = init_state(g, c, [0], params)
    assert state.owns_live
    state.live_degree[1] = 2 * TIE_EPS
    draw = 0.5
    assert draw > params.gamma * (1.0 + THIN_MARGIN)
    assert draw < params.gamma * (0.5 + 0.5 * state.active_wsum[1] / state.live_degree[1])
    assert step(state, c, g, params, Draws(draw)) == 1
    assert state.activation_time[1] == 1


def test_as_propagation_coercion():
    p = as_propagation([1.0, 0.0, 0.0])
    assert isinstance(p, Propagation)
    assert as_propagation(p) is p
