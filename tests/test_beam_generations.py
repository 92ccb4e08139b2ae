"""Beam search scores each generation in one lockstep call.

``beam_search`` hands the pool, then each round's children, to one
``estimate_spreads`` call over the vectors it has not scored yet. Under
common random numbers that must give the same ``BeamResult``, bit for bit,
as the one-candidate-at-a-time loop in ``tests/oracles.py``.
"""

import numpy as np
import pytest

from contagion import updyn
from contagion.errors import InvalidParameter
from contagion.optimizer import (
    BeamConfig,
    CandidatePool,
    beam_search,
    build_candidate_pool,
    estimate_spread,
    estimate_spreads,
)
from contagion.updyn import Propagation, SimParams, self_propagation
from tests.oracles import beam_search_reference

SEED = 199
PARAMS = SimParams(gamma=0.15, max_steps=30)


def _pool(g):
    return build_candidate_pool(g, SEED, K=1, top_deg=3, core_targets=2)


def _duplicated_pool(g):
    # equal-valued copies of three candidates, and one of them twice more
    pool = _pool(g)
    extra = [type(c)(node=c.node, kind=c.kind, vec=c.vec.copy()) for c in pool.candidates[:3]]
    extra += [pool.candidates[1], pool.candidates[1]]
    return CandidatePool(nodes=pool.nodes, candidates=pool.candidates + tuple(extra))


def _assert_same_result(res, ref):
    assert res.best_vec.dtype == ref.best_vec.dtype
    assert res.best_vec.tobytes() == ref.best_vec.tobytes()
    assert res.best_score == ref.best_score
    assert res.best_stderr == ref.best_stderr
    assert res.round_best == ref.round_best
    assert res.evaluations == ref.evaluations


# (pool builder, beam config, params)
CASES = {
    "eps_zero": (_pool, BeamConfig(width=3, rounds=2, eps_perturb=0.0, sims=10, spawn=3),
                 PARAMS),
    "duplicate_pool": (_duplicated_pool, BeamConfig(width=4, rounds=2, sims=10, spawn=3),
                       PARAMS),
    "width_at_least_pool": (_pool, BeamConfig(width=40, rounds=1, sims=6, spawn=2), PARAMS),
    "one_sim": (_pool, BeamConfig(width=3, rounds=3, sims=1, spawn=4), PARAMS),
    "gamma_above_1": (_pool, BeamConfig(width=2, rounds=2, sims=8, spawn=3),
                      SimParams(gamma=1.6, max_steps=30, epsilon=3)),
    "spontaneous": (_pool, BeamConfig(width=3, rounds=2, sims=8, spawn=3),
                    SimParams(gamma=0.05, max_steps=30, require_contact=False)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_beam_matches_one_at_a_time_reference(pa_graph_small, case):
    g = pa_graph_small
    make_pool, cfg, params = CASES[case]
    pool = make_pool(g)
    res = beam_search(g, SEED, pool, cfg, params, 8)
    _assert_same_result(res, beam_search_reference(g, SEED, pool, cfg, params, 8))
    if case == "eps_zero":
        # every child repeats its parent, so only the pool is ever scored
        assert res.evaluations == len({c.vec.tobytes() for c in pool.candidates})
    if case == "width_at_least_pool":
        assert cfg.width >= len(pool)


def test_beam_generation_larger_than_one_batch(pa_graph_small, monkeypatch):
    g = pa_graph_small
    pool = _pool(g)
    cfg = BeamConfig(width=3, rounds=2, sims=9, spawn=3)
    monkeypatch.setattr(updyn, "CHUNK_CELLS", 20 * g.n)  # 4 rows a batch
    res = beam_search(g, SEED, pool, cfg, PARAMS, 8)
    _assert_same_result(res, beam_search_reference(g, SEED, pool, cfg, PARAMS, 8))


@pytest.mark.parametrize("chunk_rows", [None, 4])
def test_estimate_spreads_equals_separate_calls(pa_graph_small, monkeypatch, chunk_rows):
    # Propagation objects, raw vectors, one object twice in a row and an
    # equal-valued copy, split across batches when chunk_rows is given
    g = pa_graph_small
    rng = np.random.default_rng(3)
    own = self_propagation(g, SEED)
    props = [own, own, Propagation(vec=own.vec.copy()), rng.standard_normal(g.features.k),
             self_propagation(g, 0), Propagation.from_vector(rng.standard_normal(g.features.k))]
    if chunk_rows is not None:
        monkeypatch.setattr(updyn, "CHUNK_CELLS", 5 * chunk_rows * g.n)
    batched = estimate_spreads(g, props, SEED, 7, PARAMS, 11)
    assert batched == [estimate_spread(g, c, SEED, 7, PARAMS, 11) for c in props]
    assert len({est.mean for est in batched}) > 1


def test_estimate_spreads_edges(pa_graph_small):
    g = pa_graph_small
    assert estimate_spreads(g, [], SEED, 5, PARAMS, 1) == []
    with pytest.raises(InvalidParameter):
        estimate_spreads(g, [self_propagation(g, SEED)], SEED, 0, PARAMS, 1)
