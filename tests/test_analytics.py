import numpy as np
import pytest

from contagion.analytics import (
    IncubationScenario,
    detect_virality,
    incubation_eps_prob,
    incubation_step_prob,
    kendall_tau,
    make_clique_scenario_graph,
    spearman,
    spread_histogram,
    time_to_virality,
    tipping_point,
)
from contagion.errors import InvalidParameter
from contagion.updyn import CascadeRecord, SimParams


def make_record(new_per_step, n=1000, seeds=(0,)):
    waves = np.array(new_per_step, dtype=np.int64)
    activation_time = np.full(n, -1, dtype=np.int64)
    placed = 0
    for t, cnt in enumerate(waves):
        activation_time[placed : placed + cnt] = t
        placed += cnt
    return CascadeRecord(
        params=SimParams(),
        seed_set=tuple(seeds),
        propagation=None,
        rng_seed=0,
        activation_time=activation_time,
        new_per_step=waves,
        final_spread=int(waves.sum()),
        converged_at=len(waves) - 1,
        hit_cap=False,
    )


def test_incubation_step_prob_clique_value():
    s = IncubationScenario(k=10, dot=1.0, alpha=0.5, beta=0.5, gamma=1.0)
    assert incubation_step_prob(s) == pytest.approx(22.0 / 40.0)


def test_incubation_step_prob_antialigned_vanishes():
    s = IncubationScenario(k=500, dot=-1.0, alpha=0.5, beta=1e-6, gamma=1.0)
    assert incubation_step_prob(s) < 1e-8


def test_incubation_step_prob_large_clique_limit():
    s = IncubationScenario(k=10_000_000, dot=1.0, alpha=0.5, beta=0.5, gamma=1.0)
    assert incubation_step_prob(s) == pytest.approx(0.5, abs=1e-6)


def test_incubation_step_prob_decreasing_in_k():
    probs = [
        incubation_step_prob(IncubationScenario(k=k, dot=0.4, alpha=0.5, beta=0.5))
        for k in range(2, 51)
    ]
    assert np.all(np.diff(probs) < 0)


def test_incubation_eps_prob():
    s1 = IncubationScenario(k=10, dot=1.0, epsilon=1)
    assert incubation_eps_prob(s1) == pytest.approx(incubation_step_prob(s1))
    s2 = IncubationScenario(k=10, dot=1.0, epsilon=2)
    assert incubation_eps_prob(s2) == pytest.approx(0.7975)
    s0 = IncubationScenario(k=10, dot=-1.0, alpha=1.0, beta=0.0, epsilon=9)
    assert incubation_eps_prob(s0) == 0.0


def test_incubation_eps_prob_monotone_in_eps():
    vals = [
        incubation_eps_prob(IncubationScenario(k=8, dot=0.2, epsilon=e))
        for e in range(1, 12)
    ]
    assert np.all(np.diff(vals) > 0)


def test_scenario_validation():
    with pytest.raises(InvalidParameter):
        IncubationScenario(k=1, dot=0.0)
    with pytest.raises(InvalidParameter):
        IncubationScenario(k=5, dot=1.5)


def test_clique_scenario_graph_shape():
    g3, _ = make_clique_scenario_graph(3)
    assert g3.n == 4
    assert len(g3.raw.edges) == 4  # triangle plus pendant
    g2, _ = make_clique_scenario_graph(2)
    assert g2.n == 3
    assert len(g2.raw.edges) == 2
    g10, c = make_clique_scenario_graph(10, dot=0.3)
    assert len(g10.raw.neighbors(1)) == 10  # bridge degree k
    assert float(g10.features.rows[1] @ c.vec) == pytest.approx(0.3)
    assert np.all(g10.edge_weights == 1.0)


def test_detect_virality():
    assert detect_virality(make_record([1, 599]), 0.5)
    assert not detect_virality(make_record([1, 498]), 0.5)
    assert not detect_virality(make_record([1]), 0.5)


def test_tipping_point():
    assert tipping_point(make_record([1, 1, 5, 2])) == 2
    assert tipping_point(make_record([3, 3, 3], seeds=(0, 1, 2))) == 0
    assert tipping_point(make_record([2, 0, 0], seeds=(0, 1))) is None


def test_time_to_virality():
    assert time_to_virality(make_record([1, 1, 598, 100]), 0.5) == 2
    assert time_to_virality(make_record([1, 5]), 0.5) is None
    assert time_to_virality(make_record([600], seeds=tuple(range(600))), 0.5) == 0


def test_spread_histogram():
    recs = [make_record([1, s]) for s in (10, 12, 600)]
    counts, edges = spread_histogram([r.final_spread for r in recs], 1000, bins=2)
    assert counts.tolist() == [2, 1]
    assert edges.tolist() == [0.0, 500.0, 1000.0]
    counts, edges = spread_histogram([0, 1000], 1000)
    assert len(counts) == 20 and counts[0] == counts[-1] == 1


def test_spearman_basics():
    assert spearman([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    assert spearman([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)


def test_spearman_tie_handling():
    # ties get average ranks: checked against the direct rank formula
    rho = spearman([1, 1, 2, 3], [1, 2, 3, 4])
    ranks_x = np.array([1.5, 1.5, 3, 4])
    ranks_y = np.array([1, 2, 3, 4])
    expected = np.corrcoef(ranks_x, ranks_y)[0, 1]
    assert rho == pytest.approx(expected)


def test_spearman_degenerate_errors():
    with pytest.raises(InvalidParameter):
        spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(InvalidParameter):
        spearman([1, 2], [1, 2])
    with pytest.raises(InvalidParameter):
        spearman([1, 2, 3], [1, 2])


def test_kendall_tau_drops_nans():
    tau = kendall_tau([1, 2, 3, 4], [0.1, 0.2, np.nan, 0.4])
    assert tau == pytest.approx(1.0)
    with pytest.raises(InvalidParameter):
        kendall_tau([1.0], [2.0])


@pytest.mark.parametrize("xs, ys", [([1, 2, 3], [0, 0, 0]), ([4, 4, 4], [1, 2, 3]),
                                    ([1, 2, 3, 4], [5, 5, np.nan, 5])])
def test_kendall_tau_constant_series_raises(xs, ys):
    # tau-b is 0/0 on a constant series; spearman raises the same way
    with pytest.raises(InvalidParameter, match="constant input"):
        kendall_tau(xs, ys)
