"""Property tests: the vectorized cascade paths against the brute-force oracles.

Graphs are random, connected and small (at most 12 nodes). The oracles in
``tests/oracles.py`` read only the edge list and its weights, never the CSR
these paths run on.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contagion.netgen import assign_edge_weights, make_unit_features
from contagion.updyn import (
    Propagation,
    SimParams,
    activation_prob,
    init_state,
    step,
    step_probs_matrix,
)
from tests.conftest import raw_from_edges
from tests.oracles import eligible_nodes, naive_activation_prob

TOL = 1e-9


def _unit_rows(draw, rows, k):
    flat = draw(st.lists(st.floats(-1.0, 1.0), min_size=rows * k, max_size=rows * k))
    arr = np.array(flat).reshape(rows, k)
    norms = np.linalg.norm(arr, axis=1)
    assume(np.all(norms > 1e-3))
    return arr / norms[:, None]


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 12))
    # a random spanning tree keeps the graph connected; extra pairs add cycles
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    k = draw(st.integers(2, 4))
    g = assign_edge_weights(raw_from_edges(n, sorted(edges)), make_unit_features(_unit_rows(draw, n, k)))
    assume(np.all(g.weighted_degree > 1e-6))
    c = Propagation.from_vector(_unit_rows(draw, 1, k)[0])
    alpha = draw(st.floats(0.0, 1.0))
    beta = draw(st.floats(0.0, 1.0 - alpha))
    params = SimParams(alpha=alpha, beta=beta, gamma=draw(st.floats(0.0, 2.0)),
                       drift=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
                       require_contact=draw(st.booleans()))
    seeds = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
    return g, c, params, seeds


class FixedDraws:
    """Stands in for a Generator: hands out preset uniforms, checking the count."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size):
        assert size == len(self.values)
        return self.values


def _step_with_draws(g, c, params, seeds, draws):
    state = init_state(g, c, seeds, params)
    step(state, c, g, params, FixedDraws(draws))
    return state


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_step_and_matrix_match_naive_oracle(scenario):
    g, c, params, seeds = scenario
    active = frozenset(seeds)
    naive = np.array([naive_activation_prob(g, active, v, c.vec, params) for v in range(g.n)])

    state = init_state(g, c, seeds, params)
    assert np.max(np.abs(step_probs_matrix(state, c, g, params) - naive)) < TOL

    # step draws exactly for the oracle's eligible set; uniforms just below each
    # oracle probability all hit, uniforms just above all miss
    eligible = eligible_nodes(g, active, params.require_contact)
    hit = _step_with_draws(g, c, params, seeds, naive[eligible] - TOL)
    assert sorted(np.flatnonzero(hit.activation_time == 1)) == eligible
    miss = _step_with_draws(g, c, params, seeds, naive[eligible] + TOL)
    assert hit.step == miss.step == 1
    assert miss.active_count == len(seeds)


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_drifted_weights_match_scalar(scenario):
    g, c, params, seeds = scenario
    params = SimParams(alpha=params.alpha, beta=params.beta, gamma=params.gamma,
                       drift=params.drift or 0.3, require_contact=params.require_contact)
    eligible = eligible_nodes(g, frozenset(seeds), params.require_contact)
    assume(eligible)
    # every eligible node activates, so drift rewrites their incident weights
    state = _step_with_draws(g, c, params, seeds, np.full(len(eligible), -1.0))
    assert state.owns_live

    matrix = step_probs_matrix(state, c, g, params)
    scalar = np.array([activation_prob(v, state, c, g, params) for v in range(g.n)])
    assert np.max(np.abs(matrix - scalar)) < 1e-12

    # the live CSR stays symmetric and its sums agree with the cached tallies
    live = state.live_weights
    assert np.array_equal(live[g.rev], live)
    rows = np.repeat(np.arange(g.n), g.raw.degree)
    assert np.allclose(np.bincount(rows, weights=live, minlength=g.n), state.live_degree,
                       rtol=0, atol=1e-12)
    to_active = np.where(state.active[g.raw.indices], live, 0.0)
    assert np.allclose(np.bincount(rows, weights=to_active, minlength=g.n), state.active_wsum,
                       rtol=0, atol=1e-12)
    assert np.array_equal(g.weights.data[g.rev], g.weights.data)
