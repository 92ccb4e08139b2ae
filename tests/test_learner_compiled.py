"""The compiled learner against the dict walks it replaced (``tests/oracles.py``).

numpy's ``exp`` and ``log`` may differ from libm's in the last bit, so the
compiled path is held to 1e-12 rather than to equality: a loss relative to
itself, a gradient or parameter entry relative to the largest entry of its
dict (an entry that is a sum with cancellation carries the ulps of its
terms).
"""

import logging
import math

import numpy as np
import pytest

from contagion import learner
from contagion.errors import InvalidParameter
from contagion.learner import (
    MEAN,
    SUM,
    CascadeTrace,
    InfluenceGraph,
    ThresholdModelParams,
    boundary_nodes,
    evaluate,
    fit,
    init_params,
    nll_and_grad,
    split_traces,
    trace_nll,
)
from tests.oracles import (
    learner_boundary_nodes,
    learner_evaluate,
    learner_fit,
    learner_init_params,
    learner_nll_and_grad,
)
from tests.test_learner import random_instance, ring_graph

TOL = 1e-12


def assert_close_dicts(got, want):
    assert got.keys() == want.keys()
    scale = max((abs(v) for v in want.values()), default=0.0)
    for key, value in want.items():
        assert abs(got[key] - value) <= TOL * scale, key


def assert_close_loss(got, want):
    assert abs(got - want) <= TOL * abs(want)


def warnings_of(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "contagion.learner"]


def string_instance(seed):
    """A trust-style host with string ids, a member outside the host and an
    influence edge that is not a host edge."""
    rng = np.random.default_rng(seed)
    users = [f"u{i}" for i in range(12)]
    pairs = [(a, b) for a in users for b in users if a != b and rng.random() < 0.25]
    graph = InfluenceGraph.from_trust_edges(pairs)
    traces = []
    for t in range(4):
        members = tuple(rng.choice(users, size=int(rng.integers(2, 7)), replace=False).tolist())
        if t == 0:
            members += ("stranger",)
        edges = [(members[i], members[j]) for j in range(len(members)) for i in range(j)
                 if rng.random() < 0.3]
        traces.append(CascadeTrace(trace_id=f"p{t}", members=members, edges=tuple(edges)))
    return graph, traces


def larger_instance(seed, aggregation):
    """40 nodes of in-degree up to about 15 and 12 traces of 2 to 11 members."""
    rng = np.random.default_rng(seed)
    pairs = [(v, w) for v in range(40) for w in range(40) if v != w and rng.random() < 0.2]
    graph = InfluenceGraph.from_trust_edges(pairs)
    traces = []
    for t in range(12):
        members = tuple(int(x) for x in rng.choice(40, size=int(rng.integers(2, 12)), replace=False))
        rank = {v: i for i, v in enumerate(members)}
        edges = [(w, v) for v in members for w in graph.in_neighbors(v)
                 if w in rank and rank[w] < rank[v] and rng.random() < 0.8]
        traces.append(CascadeTrace(trace_id=f"t{t}", members=members, edges=tuple(edges)))
    return graph, traces, init_params(graph, aggregation, rng_seed=seed)


def odd_params(graph, aggregation, seed):
    """init_params with a third of the keys dropped and two keys the traces
    never touch, one of them not a host edge."""
    params = init_params(graph, aggregation, rng_seed=seed)
    for key in list(params.influence)[::3]:
        del params.influence[key]
    for key in list(params.bias)[::3]:
        del params.bias[key]
    params.influence[("nowhere", "nobody")] = 0.5
    params.bias["nobody"] = -0.25
    return params


class LibmNumpy:
    """numpy with libm's exp and log, one element at a time."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def exp(values):
        return np.array([math.exp(v) for v in values])

    @staticmethod
    def log(values):
        return np.array([math.log(v) for v in values])


@pytest.mark.parametrize("aggregation", [SUM, MEAN])
def test_summation_order_is_the_dict_walks(monkeypatch, aggregation):
    """With libm's exp and log the compiled path equals the dict walk bit for
    bit: rows, row entries and gradient sums run in its order."""
    monkeypatch.setattr(learner, "np", LibmNumpy())
    for seed in range(15):
        graph, traces, params = random_instance(seed, aggregation) if seed % 3 else \
            larger_instance(seed, aggregation)
        for w_boundary in ("balanced", 0.5):
            assert nll_and_grad(traces, graph, params, w_boundary) == \
                learner_nll_and_grad(traces, graph, params, w_boundary)
        got = fit(traces, graph, params, steps=10, lr=0.05)
        want, losses, _ = learner_fit(traces, graph, params, 10, 0.05)
        assert got.losses == tuple(losses)
        assert got.params.influence == want.influence and got.params.bias == want.bias


@pytest.mark.parametrize("aggregation", [SUM, MEAN])
def test_init_params_draws_as_scalar_loop(aggregation):
    for seed in range(20):
        graph, _, _ = random_instance(seed, aggregation)
        for g in (graph, ring_graph(7), string_instance(seed)[0]):
            got = init_params(g, aggregation, rng_seed=seed)
            want = learner_init_params(g, aggregation, seed)
            assert list(got.influence.items()) == list(want.influence.items())
            assert list(got.bias.items()) == list(want.bias.items())
            assert got.upper == want.upper


def test_boundary_nodes_match_full_scan():
    for seed in range(30):
        graph, traces, _ = random_instance(seed, SUM)
        str_graph, str_traces = string_instance(seed)
        for g, trace in [(graph, t) for t in traces] + [(str_graph, t) for t in str_traces]:
            assert boundary_nodes(trace, g) == learner_boundary_nodes(trace, g)


@pytest.mark.parametrize("w_boundary", ["balanced", 0.5])
@pytest.mark.parametrize("aggregation", [SUM, MEAN])
def test_nll_and_grad_match_dict_walk(aggregation, w_boundary):
    for seed in range(40):
        graph, traces, params = random_instance(seed, aggregation)
        str_graph, str_traces = string_instance(seed)
        cases = [(graph, traces, params),
                 (graph, traces, odd_params(graph, aggregation, seed)),
                 (str_graph, str_traces, init_params(str_graph, aggregation, seed)),
                 (str_graph, str_traces, odd_params(str_graph, aggregation, seed))]
        for g, ts, p in cases:
            loss, grad_i, grad_b = nll_and_grad(ts, g, p, w_boundary)
            want_loss, want_i, want_b = learner_nll_and_grad(ts, g, p, w_boundary)
            assert_close_loss(loss, want_loss)
            assert_close_dicts(grad_i, want_i)
            assert_close_dicts(grad_b, want_b)
            for trace in ts:
                assert_close_loss(trace_nll(trace, g, p, w_boundary),
                                  learner_nll_and_grad([trace], g, p, w_boundary)[0])


def saturated_instance():
    """Mean-form weights far out of the sum box: member and boundary
    probabilities saturate at both ends."""
    graph, traces, _ = random_instance(4, MEAN)
    params = init_params(graph, MEAN, rng_seed=4)
    for i, key in enumerate(params.influence):
        params.influence[key] = 80.0 if i % 2 else 0.0
    for i, key in enumerate(params.bias):
        params.bias[key] = 60.0 if i % 3 == 0 else -60.0
    return graph, traces, params


def test_saturated_probabilities_warn_as_dict_walk(caplog):
    graph, traces, params = saturated_instance()
    with caplog.at_level(logging.WARNING, logger="contagion.learner"):
        got = nll_and_grad(traces, graph, params)
        got_warnings = warnings_of(caplog)
        caplog.clear()
        want = learner_nll_and_grad(traces, graph, params)
        want_warnings = warnings_of(caplog)
    assert want_warnings and got_warnings == want_warnings
    assert_close_loss(got[0], want[0])
    assert_close_dicts(got[1], want[1])
    assert_close_dicts(got[2], want[2])


def fit_cases():
    for seed in range(12):
        for aggregation in (SUM, MEAN):
            graph, traces, params = random_instance(seed, aggregation)
            yield graph, traces, params
            yield graph, traces, odd_params(graph, aggregation, seed)
            str_graph, str_traces = string_instance(seed)
            yield str_graph, str_traces, odd_params(str_graph, aggregation, seed)
    yield saturated_instance()


@pytest.mark.parametrize("w_boundary, augment", [("balanced", False), (0.5, False),
                                                 ("balanced", True)])
def test_fit_matches_dict_walk(caplog, w_boundary, augment):
    for graph, traces, params in fit_cases():
        lr = 0.05 if params.aggregation == MEAN else 0.01
        with caplog.at_level(logging.WARNING, logger="contagion.learner"):
            caplog.clear()
            got = fit(traces, graph, params, steps=25, lr=lr, w_boundary=w_boundary, augment=augment)
            got_warnings = warnings_of(caplog)
            caplog.clear()
            want, losses, lr_history = learner_fit(traces, graph, params, 25, lr, w_boundary, augment)
            assert got_warnings == warnings_of(caplog)
        assert got.lr_history == tuple(lr_history)
        assert len(got.losses) == len(losses)
        for a, b in zip(got.losses, losses):
            assert_close_loss(a, b)
        assert_close_dicts(got.params.influence, want.influence)
        assert_close_dicts(got.params.bias, want.bias)


def test_fit_clamps_as_project_does():
    graph, traces, _ = random_instance(6, SUM)
    params = init_params(graph, SUM, rng_seed=6)
    params.influence = dict.fromkeys(params.influence, -0.0)
    params.influence[("far", "away")] = 7.0
    params.bias["away"] = -1.0
    unchanged = fit(traces, graph, params, steps=0, lr=0.01).params
    assert unchanged.influence == params.influence and unchanged.bias == params.bias
    # boundary rows weigh 0, so the in-edges of nodes that are only boundary
    # nodes keep a zero gradient and stay at -0.0 until the clamp
    stepped = fit(traces, graph, params, steps=1, lr=0.01, w_boundary=0.0).params
    assert stepped.influence[("far", "away")] == 0.1 and stepped.bias["away"] == 0.0
    assert all(math.copysign(1.0, v) > 0 for v in stepped.influence.values())


def test_fit_compiles_traces_once(monkeypatch):
    graph, traces, params = random_instance(3, MEAN)
    calls = []

    def counted(trace, g):
        calls.append(trace.trace_id)
        return boundary_nodes(trace, g)

    monkeypatch.setattr(learner, "boundary_nodes", counted)
    fit(traces, graph, params, steps=7, lr=0.05)
    assert calls == [t.trace_id for t in traces]


@pytest.mark.parametrize("aggregation", [SUM, MEAN])
def test_evaluate_matches_dict_walk(aggregation):
    for seed in range(30):
        graph, traces, params = random_instance(seed, aggregation)
        str_graph, str_traces = string_instance(seed)
        fitted = fit(traces, graph, params, steps=20, lr=0.05).params
        for g, ts, p in [(graph, traces, params), (graph, traces, fitted),
                         (graph, traces, odd_params(graph, aggregation, seed)),
                         (str_graph, str_traces, odd_params(str_graph, aggregation, seed))]:
            assert evaluate(ts[:2], ts[2:], g, p) == learner_evaluate(ts[:2], ts[2:], g, p)


def test_evaluate_extra_and_missing_keys():
    # the test_evaluate_perfect_model params: (2, 0) is no host edge and no
    # influence key exists for most pairs
    g = InfluenceGraph.from_trust_edges([(1, 0), (2, 0)])
    trace = CascadeTrace(trace_id="t", members=(0, 1), edges=((0, 1),))
    params = ThresholdModelParams(aggregation=MEAN, influence={(0, 1): 50.0, (2, 0): 0.0},
                                  bias={1: 0.0}, upper=math.inf)
    assert evaluate([trace], [], g, params) == learner_evaluate([trace], [], g, params)


@pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, -0.1])
def test_fit_rejects_non_finite_lr(lr):
    graph, traces, params = random_instance(5, SUM)
    with pytest.raises(InvalidParameter, match="lr"):
        fit(traces, graph, params, steps=1, lr=lr)


def test_fit_rejects_negative_steps():
    graph, traces, params = random_instance(5, SUM)
    with pytest.raises(InvalidParameter, match="steps"):
        fit(traces, graph, params, steps=-5, lr=0.01)


@pytest.mark.parametrize("fraction", [-0.3, 1.5, math.nan, math.inf])
def test_split_traces_rejects_fraction_outside_unit_interval(fraction):
    traces = [CascadeTrace(trace_id=f"t{i}", members=(i, i + 100), edges=()) for i in range(10)]
    with pytest.raises(InvalidParameter, match="test-fraction"):
        split_traces(traces, fraction)


@pytest.mark.parametrize("fraction, n_test", [(0.0, 0), (1.0, 10)])
def test_split_traces_accepts_the_interval_ends(fraction, n_test):
    traces = [CascadeTrace(trace_id=f"t{i}", members=(i, i + 100), edges=()) for i in range(10)]
    _, test = split_traces(traces, fraction)
    assert len(test) == n_test
