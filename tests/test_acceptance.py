"""Acceptance suite: the toolkit's exit criteria.

Each test is one numbered criterion at its stated tolerance, with every
stochastic check pinned to MASTER_SEED. Run with ``pytest -v`` for one
pass/fail line per criterion (add ``-s`` to see the measured values).
"""

import numpy as np
import pytest

from contagion.analytics import (
    IncubationScenario,
    incubation_eps_prob,
    make_clique_scenario_graph,
)
from contagion.baselines import run_ic, run_kcomplex
from contagion.cli import dispatch
from contagion.experiments import (
    ExperimentConfig,
    GraphSpec,
    rq1_spread_distribution,
    rq3_size_scaling,
    rq4_param_sweep,
    rq5_affinity_sweep,
)
from contagion.learner import (
    MEAN,
    InfluenceGraph,
    activation_state_accuracy,
    fit,
    init_params,
    nll_and_grad,
    split_traces,
    traces_from_records,
)
from contagion.netgen import PERIPHERY, build_graph
from contagion.optimizer import (
    BeamConfig,
    beam_search,
    build_candidate_pool,
    estimate_spread,
)
from contagion.rng import derive_seed
from contagion.updyn import (
    Propagation,
    SimParams,
    activation_prob,
    init_state,
    run_cascades,
    self_propagation,
    step_probs_matrix,
)
from tests.conftest import uniform_feature_graph
from tests.oracles import (
    empirical_spread_distribution,
    enumerate_spread_distribution,
    total_variation,
)
from tests.test_learner import random_instance

MASTER_SEED = 20260810
GRAPH_SEED = 42


@pytest.fixture(scope="module")
def graph1000():
    return build_graph(1000, 2, 10, seed=GRAPH_SEED)


@pytest.fixture(scope="module")
def rq1_full(graph1000):
    """The Fig.-2-style experiment shared by criteria 4, 5 and 9: every node
    seeds 20 self-propagation runs under the default parameters."""
    cfg = ExperimentConfig(
        graph=GraphSpec(n=1000, r=2, embed_dim=10, seed=GRAPH_SEED),
        params=SimParams(),
        runs_per_node=20,
        node_selection="all",
        master_seed=MASTER_SEED,
    )
    return rq1_spread_distribution(cfg, graph1000)


def test_criterion_01_incubation_oracle():
    """Clique scenario k=10: analytic window probability 0.55 vs simulation."""
    g, c = make_clique_scenario_graph(10, dot=1.0)
    params = SimParams(alpha=0.5, beta=0.5, gamma=1.0, epsilon=1)
    analytic = incubation_eps_prob(
        IncubationScenario(k=10, dot=1.0, alpha=0.5, beta=0.5, gamma=1.0, epsilon=1)
    )
    assert analytic == pytest.approx(0.55)
    runs = 100_000
    records = run_cascades(
        g, [(c, [0], derive_seed(MASTER_SEED, "incubation", i)) for i in range(runs)], params)
    hits = sum(rec.activation_time[1] >= 0 for rec in records)
    freq = hits / runs
    tol = 3 * np.sqrt(analytic * (1 - analytic) / runs)
    assert abs(freq - analytic) <= tol
    print(f"[criterion 1] PASS: analytic 0.55, simulated {freq:.4f} (tol {tol:.4f})")


def test_criterion_02_matrix_scalar_equivalence():
    """Matrix-form probabilities equal the per-node loop within 1e-12."""
    g = build_graph(200, 2, 10, seed=7)
    rng = np.random.default_rng(derive_seed(MASTER_SEED, "matrix"))
    params = SimParams(alpha=0.3, beta=0.4, gamma=0.9)
    worst = 0.0
    for _ in range(100):
        c = Propagation.from_vector(rng.standard_normal(g.features.k))
        seeds = rng.choice(g.n, size=int(rng.integers(1, g.n)), replace=False)
        state = init_state(g, c, seeds, params)
        mat = step_probs_matrix(state, c, g, params)
        loop = np.array([activation_prob(v, state, c, g, params) for v in range(g.n)])
        worst = max(worst, float(np.max(np.abs(mat - loop))))
    assert worst < 1e-12
    print(f"[criterion 2] PASS: max |matrix - scalar| = {worst:.2e} over 100 states")


def test_criterion_03_brute_force_cascade_oracle():
    """Empirical spread distribution vs exhaustive outcome-tree enumeration."""
    g = uniform_feature_graph(4, [(0, 1), (1, 2), (2, 3)])
    params = SimParams(alpha=0.5, beta=0.5, gamma=1.0, epsilon=1, max_steps=4)
    c = self_propagation(g, 0)
    exact = enumerate_spread_distribution(g, c.vec, [0], params)
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    runs = 100_000
    records = run_cascades(
        g, [(c, [0], derive_seed(MASTER_SEED, "path4", i)) for i in range(runs)], params)
    spreads = [rec.final_spread for rec in records]
    tv = total_variation(exact, empirical_spread_distribution(spreads))
    assert tv < 0.02
    print(f"[criterion 3] PASS: total variation {tv:.4f} < 0.02 at {runs} runs")


def test_criterion_04_bimodality(rq1_full):
    """Spread mass below 0.1n and above 0.5n both > 5%; middle band < 10%."""
    s = rq1_full["summary"][0]
    assert s["n_runs"] == 20_000
    assert s["frac_below_010n"] > 0.05
    assert s["frac_above_050n"] > 0.05
    assert s["frac_middle_band"] < 0.10
    print(
        f"[criterion 4] PASS: below 0.1n {s['frac_below_010n']:.3f}, "
        f"above 0.5n {s['frac_above_050n']:.3f}, middle {s['frac_middle_band']:.3f}"
    )


def test_criterion_05_degree_virality_correlation(rq1_full):
    """Spearman(seed degree, mean spread) > 0.3 on the same experiment."""
    rho = rq1_full["summary"][0]["spearman_degree_mean_spread"]
    assert rho > 0.3
    print(f"[criterion 5] PASS: spearman {rho:.3f} > 0.3")


def test_criterion_06_size_scaling():
    """Time-to-virality ratio (4000 vs 250) < 3 and tracks the diameter."""
    cfg = ExperimentConfig(
        graph=GraphSpec(r=2, embed_dim=10, seed=GRAPH_SEED),
        params=SimParams(),
        runs_per_node=10,
        seeds_per_graph=10,
        graph_seeds=5,
        sweep_values=(250, 500, 1000, 2000, 4000),
        master_seed=MASTER_SEED,
    )
    out = rq3_size_scaling(cfg)
    summary = out["summary"][0]
    times = [r["mean_time_to_virality"] for r in out["per_size"]]
    assert all(t is not None for t in times)
    assert summary["time_ratio_largest_smallest"] < 3.0
    assert summary["spearman_time_diameter"] > 0.7
    print(
        f"[criterion 6] PASS: time ratio {summary['time_ratio_largest_smallest']:.2f} < 3, "
        f"spearman(time, diameter) {summary['spearman_time_diameter']:.2f} > 0.7"
    )


def test_criterion_07_parameter_sweeps(graph1000):
    """Kendall tau trends across the alpha, beta, and global-weight grids."""
    base = dict(
        graph=GraphSpec(n=1000, r=2, embed_dim=10, seed=GRAPH_SEED),
        params=SimParams(),
        runs_per_node=20,
        node_selection="sample:100",
        master_seed=MASTER_SEED,
    )
    taus = {}
    for axis in ("alpha", "beta", "global"):
        out = rq4_param_sweep(ExperimentConfig(**base), axis, graph1000)
        s = out["summary"][0]
        assert all(r["n_runs"] == 2000 for r in out["grid"])
        taus[axis] = (s["kendall_tau_frequency"], s["kendall_tau_time"])
    assert taus["alpha"][0] > 0.6
    assert taus["alpha"][1] < -0.6
    assert taus["beta"][0] < -0.6
    assert taus["global"][1] > 0.6
    print(
        "[criterion 7] PASS: "
        f"alpha tau(freq)={taus['alpha'][0]:.2f}, tau(time)={taus['alpha'][1]:.2f}; "
        f"beta tau(freq)={taus['beta'][0]:.2f}; global tau(time)={taus['global'][1]:.2f}"
    )


def test_criterion_08_misalignment(graph1000):
    """Virality frequency at cosine 0.9 strictly exceeds cosine -0.9."""
    cfg = ExperimentConfig(
        graph=GraphSpec(n=1000, r=2, embed_dim=10, seed=GRAPH_SEED),
        params=SimParams(),
        runs_per_node=20,
        node_selection="sample:100",
        sweep_values=(-0.9, 0.9),
        master_seed=MASTER_SEED,
    )
    out = rq5_affinity_sweep(cfg, graph1000)
    low, high = out["grid"][0], out["grid"][1]
    assert low["n_runs"] == high["n_runs"] == 2000
    assert high["max_cosine_error"] <= 1e-9
    assert high["virality_frequency"] > low["virality_frequency"]
    print(
        f"[criterion 8] PASS: freq(0.9)={high['virality_frequency']:.4f} > "
        f"freq(-0.9)={low['virality_frequency']:.4f} (paired seeds)"
    )


def test_criterion_09_baseline_contrasts(graph1000, rq1_full):
    """k-complex stalls from one seed; IC is monotone in p and fills the
    middle band that the propagation model leaves empty."""
    g = graph1000
    rec = run_kcomplex(g, [0], k=2)
    assert rec.final_spread == 1

    core_seed = int(np.argmax(g.raw.degree))
    means = []
    for p in [round(0.1 * i, 1) for i in range(1, 10)]:
        spreads = [
            run_ic(g, [core_seed], p, derive_seed(MASTER_SEED, "ic", p, i)).final_spread
            for i in range(2000)
        ]
        means.append(float(np.mean(spreads)))
    inversions = int(np.sum(np.diff(means) < 0))
    assert inversions <= 1

    n = g.n
    ic_middle = {}
    for p in (0.25, 0.5):
        spreads = np.array([
            run_ic(g, [core_seed], p, derive_seed(MASTER_SEED, "icmid", p, i)).final_spread
            for i in range(2000)
        ])
        ic_middle[p] = float(np.mean((spreads >= 0.2 * n) & (spreads <= 0.8 * n)))
    up_middle = rq1_full["summary"][0]["frac_middle_band"]
    assert max(ic_middle.values()) >= 0.2
    assert up_middle < 0.1
    assert max(ic_middle.values()) > up_middle
    print(
        f"[criterion 9] PASS: kcomplex spread 1; IC monotone ({inversions} inversions); "
        f"IC middle band {max(ic_middle.values()):.3f} vs UP {up_middle:.3f}"
    )


def test_criterion_10_learner(pa_graph_small):
    """Gradient oracle, monotone NLL descent, and synthetic recovery."""
    # analytic vs central finite differences, 100 random instances
    h = 1e-6
    worst = 0.0
    for seed in range(100):
        graph, traces, params = random_instance(seed, "sum" if seed % 2 else MEAN)
        _, grad_i, grad_b = nll_and_grad(traces, graph, params)
        for store, grads in ((params.influence, grad_i), (params.bias, grad_b)):
            keys = sorted(grads, key=str)
            if not keys:
                continue
            key = keys[seed % len(keys)]
            base = store.get(key, 0.0)
            store[key] = base + h
            up, _, _ = nll_and_grad(traces, graph, params)
            store[key] = base - h
            dn, _, _ = nll_and_grad(traces, graph, params)
            store[key] = base
            fd = (up - dn) / (2 * h)
            rel = abs(fd - grads[key]) / max(abs(fd), abs(grads[key]), 1e-8)
            worst = max(worst, rel)
    assert worst < 1e-4

    # NLL non-increasing at lr = 1e-3 on the 10-node fixture
    graph, traces, params = random_instance(0, "sum")
    losses = fit(traces, graph, params, steps=50, lr=1e-3).losses
    assert np.all(np.diff(losses) <= 1e-9)

    # synthetic threshold-model traces: beat the majority baseline by 10 points
    from contagion.baselines import BaselineConfig, run_lt

    g = pa_graph_small
    host = InfluenceGraph.from_weighted_graph(g)
    cfg = BaselineConfig(model="lt", lt_dist="constant", lt_theta=0.35)
    rng = np.random.default_rng(derive_seed(MASTER_SEED, "lt-traces"))
    records = [
        run_lt(g, rng.choice(g.n, size=4, replace=False), cfg,
               rng_seed=derive_seed(MASTER_SEED, "lt", i))
        for i in range(60)
    ]
    traces = traces_from_records([r for r in records if r.final_spread >= 2], g)
    train, test = split_traces(traces, 0.2, rng_seed=5)
    fitted = fit(train, host, init_params(host, MEAN, rng_seed=0), steps=150, lr=0.05)
    accuracy, majority, counts = activation_state_accuracy(test, host, fitted.params)
    assert accuracy >= majority + 0.10
    print(
        f"[criterion 10] PASS: grad rel err {worst:.2e} < 1e-4; NLL monotone; "
        f"held-out accuracy {accuracy:.3f} vs majority {majority:.3f}"
    )


def test_criterion_11_optimizer(graph1000):
    """Beam scores never decrease and the winner never loses to
    self-propagation on a periphery seed (paired, M = 500)."""
    g = graph1000
    periphery = np.flatnonzero(g.segments == PERIPHERY)
    v = int(periphery[np.random.default_rng(7).integers(len(periphery))])
    pool = build_candidate_pool(g, v, K=1, top_deg=3, core_targets=3)
    cfg = BeamConfig(width=2, rounds=2, eps_perturb=0.1, sims=500, spawn=4)
    result = beam_search(g, v, pool, cfg, SimParams(), rng_seed=MASTER_SEED)
    assert np.all(np.diff(result.round_best) >= 0)
    baseline = estimate_spread(g, self_propagation(g, v), v, 500, SimParams(),
                               rng_seed=MASTER_SEED)
    assert result.best_score >= baseline.mean
    print(
        f"[criterion 11] PASS: rounds {[round(x, 1) for x in result.round_best]} "
        f"non-decreasing; best {result.best_score:.1f} >= self {baseline.mean:.1f}"
    )


def test_criterion_12_pipeline_determinism(tmp_path):
    """netgen -> simulate -> analyze twice with the same seeds is
    byte-identical (manifests excluded: they record wall-clock time)."""
    outputs = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        graph = d / "graph.json"
        runs = d / "runs.jsonl"
        report = d / "report.json"
        assert dispatch(["netgen", "--nodes", "300", "--attach", "2", "--embed-dim",
                         "8", "--seed", "13", "--out", str(graph)]) == 0
        assert dispatch(["simulate", "--graph", str(graph), "--seeds", "0,7",
                         "--prop", "self", "--runs", "25", "--seed", "99",
                         "--out", str(runs)]) == 0
        assert dispatch(["analyze", "--runs", str(runs), "--graph", str(graph),
                         "--report", str(report)]) == 0
        outputs[tag] = tuple(p.read_bytes() for p in (graph, runs, report))
    assert outputs["a"] == outputs["b"]
    print("[criterion 12] PASS: pipeline outputs byte-identical across reruns")
