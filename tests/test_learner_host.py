"""The learner's host graph against the dict of in-neighbor tuples it is
built to equal (``tests/oracles.py``)."""

import numpy as np
import pytest

from contagion.learner import MEAN, SUM, CascadeTrace, InfluenceGraph, boundary_nodes, init_params
from tests.oracles import (
    DictHost,
    learner_boundary_nodes,
    learner_graph_host,
    learner_init_params,
    learner_trust_host,
)


def random_trust_pairs(rng):
    """Trust pairs over int and str ids, ``1`` and ``"1"`` among them, with
    self-trust and repeated pairs."""
    pool = list(range(6)) + [str(i) for i in range(1, 7)] + ["a", "b"]
    ends = rng.integers(0, len(pool), (int(rng.integers(0, 40)), 2))
    pairs = [(pool[i], pool[j]) for i, j in ends]
    pairs += [pairs[i] for i in rng.integers(0, len(pairs), len(pairs) // 3)] if pairs else []
    pairs += [(pool[i], pool[i]) for i in rng.integers(0, len(pool), 3)]
    return [pairs[i] for i in rng.permutation(len(pairs))], pool


def assert_host_matches(graph, want: dict, pool, rng):
    assert list(graph.nodes()) == list(want)
    assert [type(v) for v in graph.nodes()] == [type(v) for v in want]
    for v in list(want) + ["absent", -1]:
        assert graph.in_neighbors(v) == want.get(v, ())
    for seed in range(2):
        for aggregation in (SUM, MEAN):
            got = init_params(graph, aggregation, rng_seed=seed)
            ref = learner_init_params(DictHost(want), aggregation, seed)
            assert list(got.influence.items()) == list(ref.influence.items())
            assert list(got.bias.items()) == list(ref.bias.items())
    for t in range(5):
        size = int(rng.integers(1, min(len(pool), 8) + 1))
        members = tuple(pool[i] for i in rng.choice(len(pool), size=size, replace=False))
        trace = CascadeTrace(trace_id=f"t{t}", members=members, edges=())
        assert boundary_nodes(trace, graph) == learner_boundary_nodes(trace, DictHost(want))


def test_trust_host_matches_dict_builder():
    rng = np.random.default_rng(20261019)
    for _ in range(200):
        pairs, pool = random_trust_pairs(rng)
        want = learner_trust_host(pairs)
        assert_host_matches(InfluenceGraph.from_trust_edges(pairs), want, pool + ["x"], rng)
        # a generator of pairs reads as its list
        assert list(InfluenceGraph.from_trust_edges(iter(pairs)).nodes()) == list(want)


@pytest.mark.parametrize("seed", [0, 1])
def test_graph_host_matches_dict_builder(pa_graph_small, seed):
    g = pa_graph_small
    want = learner_graph_host(g)
    rng = np.random.default_rng(seed)
    assert_host_matches(InfluenceGraph.from_weighted_graph(g), want, list(range(g.n)) + [g.n], rng)
