"""The lockstep engine against one run stepped alone.

``run_cascades`` advances many runs as rows of one state. Every record it
returns must equal, field for field and bit for bit, the one-run reference
loop in ``tests/oracles.py`` under the same seed: the same generator
stream, the same draw order and the same floating-point sums.
"""

import weakref

import numpy as np
import pytest

from contagion import experiments, updyn
from contagion.experiments import run_batch
from contagion.optimizer import estimate_spread
from contagion.rng import derive_seed
from contagion.updyn import (
    Propagation,
    RunTally,
    SimParams,
    iter_cascades,
    run_cascade,
    run_cascades,
    self_propagation,
)
from tests.oracles import reference_cascade

PATHS = {
    "contact": SimParams(gamma=0.15),
    "spontaneous": SimParams(gamma=0.05, require_contact=False),
    "drift": SimParams(gamma=0.15, drift=0.3),
    "hit_cap": SimParams(gamma=0.6, max_steps=5),
    "gamma_above_1": SimParams(gamma=1.6, epsilon=3),
}


def _mixed_runs(g, count, seed):
    """Single and multi-node seed sets (unsorted), own and random vectors."""
    rng = np.random.default_rng(seed)
    hub = int(np.argmax(g.raw.degree))
    runs = []
    for i in range(count):
        v = int(rng.integers(g.n))
        if i % 4 == 1 and v != hub:
            seeds = [v, hub]  # activation order follows the list, not the ids
        elif i % 4 == 3:
            seeds = [int(x) for x in rng.choice(g.n, size=3, replace=False)]
        else:
            seeds = [v]
        if i % 2:
            c = Propagation.from_vector(rng.standard_normal(g.features.k))
        else:
            c = self_propagation(g, v)
        runs.append((c, seeds, derive_seed(seed, "run", i)))
    return runs


def _assert_matches_reference(g, runs, params, records, tally=None):
    expected = RunTally()
    for (c, seeds, rng_seed), rec in zip(runs, records, strict=True):
        times, waves, spread, converged_at, hit_cap, draws = reference_cascade(
            g, c, seeds, params, rng_seed)
        assert np.array_equal(rec.activation_time, times)
        assert rec.activation_time.dtype == times.dtype
        assert np.array_equal(rec.new_per_step, waves)
        assert rec.new_per_step.dtype == waves.dtype
        assert (rec.final_spread, rec.converged_at, rec.hit_cap) == (spread, converged_at, hit_cap)
        assert rec.seed_set == tuple(seeds) and rec.rng_seed == rng_seed
        expected.add(RunTally(1, converged_at, draws, int(hit_cap)))
    if tally is not None:
        assert tally == expected


def test_batched_scatter_matches_one_run_per_row(pa_graph_small):
    # one scatter over the cells of three rows sums each row's neighbour
    # cells in the same order as that run's own scatter
    g = pa_graph_small
    rng = np.random.default_rng(4)
    nodes = [rng.permutation(g.n)[:size] for size in (150, 1, 60)]
    props = [self_propagation(g, int(row[0])) for row in nodes]
    rows = updyn._fresh_rows(g, props, own_live=False)
    run = np.repeat(np.arange(3), [len(row) for row in nodes])
    updyn._activate_rows(rows, g, run, np.concatenate(nodes), 0)
    for r, (prop, row) in enumerate(zip(props, nodes)):
        state = updyn.init_state(g, prop, row, SimParams())
        assert np.array_equal(rows.row("active_wsum", r), state.active_wsum)
        assert np.array_equal(rows.row("active_nbr_count", r), state.active_nbr_count)
        assert np.array_equal(rows.row("affinity_hat", r), state.affinity_hat)
        assert rows.active_count[r] == state.active_count == len(row)


@pytest.mark.parametrize("path", sorted(PATHS))
def test_lockstep_matches_reference(pa_graph_small, path):
    g, params = pa_graph_small, PATHS[path]
    runs = _mixed_runs(g, 24, seed=7)
    tally = RunTally()
    records = run_cascades(g, runs, params, tally)
    assert len({(r.final_spread, r.converged_at) for r in records}) > 1
    if path == "hit_cap":
        assert all(r.hit_cap for r in records)
    _assert_matches_reference(g, runs, params, records, tally)


def test_dead_and_viral_runs_share_a_batch(pa_graph_small):
    # with a one-step cooling period a run whose first step activates
    # nobody ends at step 1, while its neighbours in the batch go viral
    g = pa_graph_small
    params = SimParams(gamma=0.6, epsilon=1)
    runs = _mixed_runs(g, 30, seed=11)
    records = run_cascades(g, runs, params)
    dead = [r for r in records if r.converged_at == 1]
    assert dead and all(r.final_spread == len(r.seed_set) for r in dead)
    assert any(r.final_spread > g.n // 2 for r in records)
    _assert_matches_reference(g, runs, params, records)


@pytest.mark.parametrize("require_contact", [True, False])
def test_saturated_runs_step_through_their_cooling_zeros(pa_graph_small, require_contact):
    # nothing is left to draw once every node is active; the run still
    # steps, drawing nothing, until the cooling period or the step cap
    g = pa_graph_small
    everyone = list(range(g.n))
    c = self_propagation(g, 0)
    for params in (SimParams(epsilon=4, require_contact=require_contact),
                   SimParams(epsilon=10, max_steps=3, require_contact=require_contact)):
        runs = [(c, everyone, 1), (c, [0], 2)]
        records = run_cascades(g, runs, params)
        assert list(records[0].new_per_step) == [g.n] + [0] * records[0].converged_at
        _assert_matches_reference(g, runs, params, records)
    assert records[0].hit_cap and records[0].converged_at == 3


@pytest.mark.parametrize("drift", [0.0, 0.3])
def test_batch_larger_than_one_chunk(pa_graph_small, monkeypatch, drift):
    g = pa_graph_small
    params = SimParams(gamma=0.15, drift=drift)
    runs = _mixed_runs(g, 9, seed=3)
    whole = run_cascades(g, runs, params)
    monkeypatch.setattr(updyn, "CHUNK_CELLS", 20 * g.n)  # 4 rows, or 1 under drift
    tally = RunTally()
    chunked = run_cascades(g, runs, params, tally)
    for a, b in zip(whole, chunked, strict=True):
        assert np.array_equal(a.activation_time, b.activation_time)
        assert np.array_equal(a.new_per_step, b.new_per_step)
    _assert_matches_reference(g, runs, params, chunked, tally)


def test_run_cascade_is_a_batch_of_one(pa_graph_small):
    g = pa_graph_small
    runs = _mixed_runs(g, 4, seed=5)
    params = SimParams(gamma=0.15, drift=0.3)
    batch = run_cascades(g, runs, params)
    for (c, seeds, rng_seed), rec in zip(runs, batch):
        one = run_cascade(g, c, seeds, params, rng_seed)
        assert one.to_dict() == rec.to_dict()


def test_run_cascades_checks_every_run_first(pa_graph_small):
    g = pa_graph_small
    c = self_propagation(g, 0)
    with pytest.raises(updyn.InvalidParameter):
        run_cascades(g, [(c, [0], 1), (c, [g.n], 2)], SimParams())
    with pytest.raises(updyn.InvalidParameter):
        run_cascades(g, [(c, [0], 1), ([1.0, 0.0], [1], 2)], SimParams())
    assert run_cascades(g, [], SimParams()) == []
    with pytest.raises(updyn.InvalidParameter):
        iter_cascades(g, [(c, [0], 1), (c, [g.n], 2)], SimParams())  # before any next()


def test_run_batch_holds_one_batch_of_records(pa_graph_small, monkeypatch):
    # run_batch summarizes each record as its batch comes back, so at most
    # one batch of records (each with an n-length activation_time) is alive
    g = pa_graph_small
    monkeypatch.setattr(updyn, "CHUNK_CELLS", 20 * g.n)  # 4 rows
    seen, most_alive = [], 0
    summarize = experiments._summarize

    def tracked(rec, *args):
        nonlocal most_alive
        seen.append(weakref.ref(rec))
        most_alive = max(most_alive, sum(r() is not None for r in seen))
        return summarize(rec, *args)

    monkeypatch.setattr(experiments, "_summarize", tracked)
    tasks = [(v, g.features.rows[v].copy(), 0, derive_seed(4, v)) for v in range(40)]
    summaries = run_batch(g, tasks, SimParams(gamma=0.15, epsilon=3))
    assert len(summaries) == len(seen) == 40
    assert most_alive <= 4


def test_run_batch_pool_keeps_order_and_tally(pa_graph_small):
    g = pa_graph_small
    params = SimParams(gamma=0.15, epsilon=3)
    tasks = [(v, g.features.rows[v].copy(), i, derive_seed(9, v, i))
             for v in (0, 5, 9, 57, 199) for i in range(4)]
    serial, parallel = RunTally(), RunTally()
    assert run_batch(g, tasks, params, jobs=1, tally=serial) == \
        run_batch(g, tasks, params, jobs=2, tally=parallel)
    assert serial == parallel and serial.cascades == len(tasks)


def test_estimate_spread_matches_reference(pa_graph_small):
    g = pa_graph_small
    c = self_propagation(g, 10)
    params = SimParams(gamma=0.15, max_steps=30)
    est = estimate_spread(g, c, 10, M=40, params=params, rng_seed=9)
    spreads = np.array([
        reference_cascade(g, c, [10], params, derive_seed(9, "sim", i))[2] for i in range(40)
    ], dtype=np.float64)
    assert est.mean == float(spreads.mean())
    assert est.stderr == float(spreads.std(ddof=1) / np.sqrt(40))
