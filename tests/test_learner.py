import math
import os

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
    activation_state_accuracy,
    boundary_nodes,
    evaluate,
    fit,
    init_params,
    load_model,
    load_ratings_tsv,
    load_trust_tsv,
    nll_and_grad,
    predict_activation,
    prefix_subcascades,
    reconstruct_traces,
    save_model,
    split_traces,
    trace_nll,
    traces_from_records,
)


def ring_graph(n=10):
    pairs = []
    for v in range(n):
        pairs.append((v, (v + 1) % n))
        pairs.append(((v + 1) % n, v))
    return InfluenceGraph.from_trust_edges(pairs)


def random_instance(seed, aggregation):
    """Small random host graph plus consistent traces for gradient checks."""
    rng = np.random.default_rng(seed)
    n = 10
    pairs = []
    for v in range(n):
        for w in range(n):
            if v != w and rng.random() < 0.35:
                pairs.append((v, w))
    graph = InfluenceGraph.from_trust_edges(pairs)
    traces = []
    for t in range(3):
        size = int(rng.integers(2, 6))
        members = tuple(int(x) for x in rng.choice(n, size=size, replace=False))
        rank = {v: i for i, v in enumerate(members)}
        edges = []
        for v in members:
            for w in graph.in_neighbors(v):
                if w in rank and rank[w] < rank[v] and rng.random() < 0.8:
                    edges.append((w, v))
        traces.append(CascadeTrace(trace_id=f"t{t}", members=members, edges=tuple(edges)))
    params = init_params(graph, aggregation, rng_seed=seed)
    return graph, traces, params


def test_trace_validation():
    CascadeTrace(trace_id="ok", members=(1, 2), edges=((1, 2),))
    with pytest.raises(InvalidParameter):
        CascadeTrace(trace_id="dup", members=(1, 1), edges=())
    with pytest.raises(InvalidParameter):
        CascadeTrace(trace_id="out", members=(1, 2), edges=((1, 3),))
    with pytest.raises(InvalidParameter):
        CascadeTrace(trace_id="rev", members=(1, 2), edges=((2, 1),))


def test_reconstruct_traces_rule():
    trust = [("u", "v")]  # u trusts v
    ratings = [("v", "p", 1), ("u", "p", 2)]
    traces = reconstruct_traces(trust, ratings)
    assert len(traces) == 1
    assert traces[0].members == ("v", "u")
    assert traces[0].edges == (("v", "u"),)


def test_reconstruct_traces_no_edge_cases():
    # u rates first: no edge; no trust relation: no edge; tie: no edge
    trust = [("u", "v")]
    t1 = reconstruct_traces(trust, [("u", "p", 1), ("v", "p", 2)])
    assert t1[0].edges == ()
    t2 = reconstruct_traces([], [("v", "p", 1), ("u", "p", 2)])
    assert t2[0].edges == ()
    t3 = reconstruct_traces(trust, [("v", "p", 5), ("u", "p", 5)])
    assert t3[0].edges == ()


def test_reconstruct_traces_filters_and_dedupes():
    trust = [("a", "b")]
    ratings = [
        ("a", "solo", 1),  # single-rater product: dropped
        ("b", "p", 3),
        ("b", "p", 1),  # duplicate keeps the earliest time
        ("a", "p", 2),
    ]
    traces = reconstruct_traces(trust, ratings)
    assert len(traces) == 1
    assert traces[0].members == ("b", "a")
    assert traces[0].edges == (("b", "a"),)
    assert reconstruct_traces([], []) == []


def test_predict_activation_zero_params():
    g = ring_graph()
    params = ThresholdModelParams(aggregation=SUM, influence={}, bias={}, upper=0.1)
    assert predict_activation(3, {2}, g, params) == pytest.approx(0.5)


def test_predict_activation_sigmoid_saturation():
    # 50 active in-neighbors at the 0.1 bound, zero bias: sigma(5) > 0.99
    pairs = [(99, w) for w in range(50)]
    g = InfluenceGraph.from_trust_edges(pairs)
    params = ThresholdModelParams(
        aggregation=SUM,
        influence={(w, 99): 0.1 for w in range(50)},
        bias={99: 0.0},
        upper=0.1,
    )
    p = predict_activation(99, set(range(50)), g, params)
    assert p == pytest.approx(1.0 / (1.0 + math.exp(-5.0)))
    assert p > 0.99


def test_predict_activation_mean_form_balance():
    # equal active and inactive mass cancels, leaving sigma(bias)
    pairs = [(9, 0), (9, 1)]
    g = InfluenceGraph.from_trust_edges(pairs)
    params = ThresholdModelParams(
        aggregation=MEAN,
        influence={(0, 9): 0.7, (1, 9): 0.7},
        bias={9: 0.3},
        upper=math.inf,
    )
    assert predict_activation(9, {0}, g, params) == pytest.approx(1.0 / (1.0 + math.exp(-0.3)))


def test_boundary_nodes():
    g = ring_graph(6)
    trace = CascadeTrace(trace_id="t", members=(0, 1), edges=((0, 1),))
    assert boundary_nodes(trace, g) == [2, 5]


def test_trace_nll_single_member_no_boundary():
    g = InfluenceGraph.from_trust_edges([(7, 8)])  # 7 trusts 8
    trace = CascadeTrace(trace_id="t", members=(8,), edges=())
    params = ThresholdModelParams(aggregation=SUM, influence={}, bias={8: 0.05}, upper=0.1)
    # node 8 has no in-neighbors and nothing borders it (7's in-nbr is 8, but
    # 8 is the member; 7 is boundary) -- recompute by hand
    expected = -math.log(1.0 / (1.0 + math.exp(-0.05)))
    wb = 1.0 / 1.0  # one member, one boundary node (7)
    p7 = predict_activation(7, {8}, g, params)
    expected -= wb * math.log(1.0 - p7)
    assert trace_nll(trace, g, params) == pytest.approx(expected)


def test_trace_nll_perfect_prediction_limit():
    g = InfluenceGraph.from_trust_edges([(1, 0), (2, 0)])  # 0 influences 1 and 2
    trace = CascadeTrace(trace_id="t", members=(0, 1), edges=((0, 1),))
    params = ThresholdModelParams(
        aggregation=MEAN,
        influence={(0, 1): 40.0, (0, 2): -0.0, (2, 0): 0.0},
        bias={0: 40.0, 1: 0.0, 2: -0.0},
        upper=math.inf,
    )
    # member probs ~ 1; boundary node 2 has p = sigma(0.1... ) small weight
    loss = trace_nll(trace, g, params, w_boundary=0.0)
    assert loss < 1e-10


def test_nll_decomposes_across_traces():
    g, traces, params = random_instance(3, SUM)
    total, _, _ = nll_and_grad(traces, g, params)
    parts = sum(trace_nll(t, g, params) for t in traces)
    assert total == pytest.approx(parts)


@pytest.mark.parametrize("w_boundary", ["balanced", 0.5])
def test_nll_and_grad_scans_each_boundary_once(monkeypatch, w_boundary):
    g, traces, params = random_instance(3, SUM)
    expected = nll_and_grad(traces, g, params, w_boundary)
    calls = []

    def counted(trace, graph):
        calls.append(trace.trace_id)
        return boundary_nodes(trace, graph)

    monkeypatch.setattr(learner, "boundary_nodes", counted)
    assert nll_and_grad(traces, g, params, w_boundary) == expected
    assert calls == [t.trace_id for t in traces]


@pytest.mark.parametrize("aggregation", [SUM, MEAN])
def test_gradients_match_finite_differences(aggregation):
    h = 1e-6
    for seed in range(100):
        graph, traces, params = random_instance(seed, aggregation)
        loss, grad_i, grad_b = nll_and_grad(traces, graph, params)
        rng = np.random.default_rng(seed + 1000)
        keys_i = sorted(grad_i, key=str)
        keys_b = sorted(grad_b, key=str)
        checks = []
        if keys_i:
            checks.append(("influence", keys_i[int(rng.integers(len(keys_i)))]))
        if keys_b:
            checks.append(("bias", keys_b[int(rng.integers(len(keys_b)))]))
        for kind, key in checks:
            store = params.influence if kind == "influence" else params.bias
            grad = grad_i if kind == "influence" else grad_b
            base = store.get(key, 0.0)
            store[key] = base + h
            up, _, _ = nll_and_grad(traces, graph, params)
            store[key] = base - h
            dn, _, _ = nll_and_grad(traces, graph, params)
            store[key] = base
            fd = (up - dn) / (2 * h)
            denom = max(abs(fd), abs(grad[key]), 1e-8)
            assert abs(fd - grad[key]) / denom < 1e-4


def test_init_params_in_box():
    g = ring_graph()
    params = init_params(g, SUM, rng_seed=1)
    assert all(0.0 <= v <= 0.1 for v in params.influence.values())
    assert all(0.0 <= v <= 0.1 for v in params.bias.values())
    again = init_params(g, SUM, rng_seed=1)
    assert again.influence == params.influence


def test_fit_zero_steps_unchanged():
    g, traces, params = random_instance(5, SUM)
    result = fit(traces, g, params, steps=0, lr=1e-3)
    assert result.params.influence == params.influence
    assert result.params.bias == params.bias
    assert len(result.losses) == 1


def test_fit_loss_non_increasing_small_lr():
    g, traces, params = random_instance(7, SUM)
    result = fit(traces, g, params, steps=60, lr=1e-3)
    diffs = np.diff(result.losses)
    assert np.all(diffs <= 1e-9)


def test_fit_projection_keeps_box():
    g, traces, params = random_instance(9, SUM)
    result = fit(traces, g, params, steps=40, lr=0.5)
    assert all(0.0 <= v <= 0.1 + 1e-15 for v in result.params.influence.values())
    assert all(0.0 <= v <= 0.1 + 1e-15 for v in result.params.bias.values())


def test_fit_rejects_bad_lr():
    g, traces, params = random_instance(5, SUM)
    with pytest.raises(InvalidParameter):
        fit(traces, g, params, steps=1, lr=0.0)


def test_prefix_subcascades():
    trace = CascadeTrace(
        trace_id="t", members=(1, 2, 3, 4), edges=((1, 2), (2, 3), (1, 4))
    )
    prefixes = prefix_subcascades(trace)
    assert [p.members for p in prefixes] == [(1, 2), (1, 2, 3)]
    assert prefixes[1].edges == ((1, 2), (2, 3))
    # every prefix is itself a valid trace (constructor validates)


def test_augmentation_flag_off_is_identical():
    g, traces, params = random_instance(11, SUM)
    plain = fit(traces, g, params, steps=15, lr=1e-3, augment=False)
    again = fit(traces, g, params, steps=15, lr=1e-3, augment=False)
    assert plain.losses == again.losses
    augmented = fit(traces, g, params, steps=15, lr=1e-3, augment=True)
    n_prefixes = sum(max(0, len(t.members) - 2) for t in traces)
    if n_prefixes:
        assert augmented.losses != plain.losses


def test_split_traces_deterministic():
    traces = [
        CascadeTrace(trace_id=f"t{i}", members=(i, i + 100), edges=())
        for i in range(10)
    ]
    train, test = split_traces(traces, 0.2, rng_seed=4)
    train2, test2 = split_traces(traces, 0.2, rng_seed=4)
    assert [t.trace_id for t in train] == [t.trace_id for t in train2]
    assert len(test) == 2
    assert {t.trace_id for t in train} | {t.trace_id for t in test} == {
        t.trace_id for t in traces
    }


def test_evaluate_perfect_model():
    g = InfluenceGraph.from_trust_edges([(1, 0), (2, 0)])
    trace = CascadeTrace(trace_id="t", members=(0, 1), edges=((0, 1),))
    params = ThresholdModelParams(
        aggregation=MEAN,
        influence={(0, 1): 50.0, (0, 2): 0.0, (2, 0): 0.0},
        bias={0: 0.0, 1: 0.0, 2: 0.0},
        upper=math.inf,
    )
    report = evaluate([trace], [trace], g, params)
    assert report["train"]["active_nonseeds"] == 1.0
    assert report["train"]["boundary"] == 1.0
    assert report["test"]["active_nonseeds"] == 1.0


def test_evaluate_constant_half_predicts_inactive():
    g = ring_graph(6)
    trace = CascadeTrace(trace_id="t", members=(0, 1), edges=((0, 1),))
    params = ThresholdModelParams(aggregation=SUM, influence={}, bias={}, upper=0.1)
    report = evaluate([trace], [], g, params)
    # ties break toward inactive: boundary (truly inactive) is all correct,
    # active members all wrong
    assert report["train"]["boundary"] == 1.0
    assert report["train"]["active_nonseeds"] == 0.0
    assert report["test"]["active_nonseeds"] is None


def test_traces_from_records(path4_uniform):
    from contagion.baselines import run_kcomplex

    rec = run_kcomplex(path4_uniform, [0, 1], k=1)
    traces = traces_from_records([rec], path4_uniform)
    assert len(traces) == 1
    t = traces[0]
    assert t.members[0] in (0, 1)
    assert set(t.members) == {0, 1, 2, 3}
    assert (1, 2) in t.edges and (2, 3) in t.edges


def test_model_roundtrip(tmp_path):
    g, _, params = random_instance(2, MEAN)
    path = tmp_path / "model.json"
    save_model(params, path)
    loaded = load_model(path, int_ids=True)
    assert loaded.aggregation == MEAN
    assert math.isinf(loaded.upper)
    assert loaded.bias == {int(k): pytest.approx(v) for k, v in params.bias.items()}
    assert set(loaded.influence) == set(params.influence)


def test_save_model_replaces_hard_linked_file(tmp_path):
    # the other name of a hard-linked model path keeps its bytes
    _, _, params = random_instance(2, SUM)
    path, other = tmp_path / "model.json", tmp_path / "keep.json"
    other.write_text("keep\n")
    os.link(other, path)
    save_model(params, path)
    assert other.read_text() == "keep\n" and os.stat(path).st_nlink == 1
    assert load_model(path, int_ids=True).bias == params.bias


def test_tsv_loaders(tmp_path):
    trust = tmp_path / "trust.tsv"
    trust.write_text("a\tb\nb\tc\n")
    assert load_trust_tsv(trust) == [("a", "b"), ("b", "c")]
    ratings = tmp_path / "ratings.tsv"
    ratings.write_text("a\tp1\t3\nb\tp1\t5\n")
    assert load_ratings_tsv(ratings) == [("a", "p1", 3), ("b", "p1", 5)]
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tp1\tnot_a_time\n")
    with pytest.raises(InvalidParameter):
        load_ratings_tsv(bad)
    short = tmp_path / "short.tsv"
    short.write_text("only_one_field\n")
    with pytest.raises(InvalidParameter):
        load_trust_tsv(short)


def test_synthetic_recovery_beats_majority(pa_graph_small):
    """LT-generated traces: fitted model beats the majority baseline held out."""
    from contagion.baselines import CONSTANT, LT, BaselineConfig, run_lt

    g = pa_graph_small
    host = InfluenceGraph.from_weighted_graph(g)
    cfg = BaselineConfig(model=LT, lt_dist=CONSTANT, lt_theta=0.35)
    rng = np.random.default_rng(1234)
    records = []
    for i in range(60):
        seeds = rng.choice(g.n, size=4, replace=False)
        records.append(run_lt(g, seeds, cfg, rng_seed=10_000 + i))
    traces = traces_from_records([r for r in records if 2 <= r.final_spread], g)
    train, test = split_traces(traces, 0.2, rng_seed=5)
    params = init_params(host, MEAN, rng_seed=0)
    result = fit(train, host, params, steps=150, lr=0.05)
    accuracy, majority, counts = activation_state_accuracy(test, host, result.params)
    assert counts["active_nonseeds"] > 0 and counts["boundary"] > 0
    assert accuracy >= majority + 0.10
