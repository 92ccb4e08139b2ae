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
    init_state,
    iter_cascades,
    run_cascade,
    run_cascades,
    self_propagation,
    step,
)
from tests.conftest import Draws
from tests.oracles import DriftReference, reference_cascade

PATHS = {
    "contact": SimParams(gamma=0.15),
    "spontaneous": SimParams(gamma=0.05, require_contact=False),
    "drift": SimParams(gamma=0.15, drift=0.3),
    # many adjacent nodes of a row activate, and drift, in the same step
    "drift_spontaneous": SimParams(gamma=1.0, drift=0.5, require_contact=False, epsilon=3),
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
    rows = updyn._fresh_rows(g, updyn._affinities(g, props), own_live=False)
    run = np.repeat(np.arange(3), [len(row) for row in nodes])
    updyn._activate_rows(rows, g, run, np.concatenate(nodes), 0, [len(row) for row in nodes])
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


@pytest.mark.parametrize("path", sorted(PATHS))
def test_step_loop_is_the_one_row_batch(pa_graph_small, path):
    # init_state and step advance the same one-row state run_cascade does,
    # so stepping a run by hand until it cools or hits the cap reproduces
    # its record under the same generator
    g, params = pa_graph_small, PATHS[path]
    max_steps = params.resolve_max_steps(g.n)
    for c, seeds, rng_seed in _mixed_runs(g, 8, seed=13):
        rec = run_cascade(g, c, seeds, params, rng_seed)
        state = init_state(g, c, seeds, params)
        rng = np.random.default_rng(rng_seed)
        waves = [len(seeds)]
        while state.stable_steps < params.epsilon and state.step < max_steps:
            waves.append(step(state, c, g, params, rng))
        assert np.array_equal(state.activation_time, rec.activation_time)
        assert np.array_equal(np.array(waves, dtype=np.int64), rec.new_per_step)
        assert (int(state.active_count[0]), state.step, state.stable_steps < params.epsilon) == \
            (rec.final_spread, rec.converged_at, rec.hit_cap)


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


def _stacked(states) -> updyn.CascadeState:
    """One lockstep state whose row r is ``states[r]``; the rows own their
    live arrays if the states do, else they share the graph's."""
    owns = states[0].owns_live
    per_row = ["active", "activation_time", "active_nbr_count", "active_wsum", "affinity_hat",
               "active_count"]
    live = ["live_degree", "live_features", "live_weights"]
    cat = {name: np.concatenate([getattr(s, name) for s in states])
           for name in per_row + (live if owns else [])}
    if not owns:
        cat.update({name: getattr(states[0], name) for name in live})
    return updyn.CascadeState(n=states[0].n, **cat, owns_live=owns)


def test_drift_rows_match_node_by_node_oracle(pa_graph_small):
    # four rows drift in the same steps, each with many adjacent new nodes,
    # except row 1, whose draws never fire
    g = pa_graph_small
    params = SimParams(gamma=1.0, drift=0.4, require_contact=False)
    rng = np.random.default_rng(6)
    props = [Propagation.from_vector(rng.standard_normal(g.features.k)) for _ in range(4)]
    seeds = [[0], [5, 9], [57], [199, 3]]
    rows = _stacked([init_state(g, c, s, params) for c, s in zip(props, seeds)])
    refs = [DriftReference(g, c, params.drift, s) for c, s in zip(props, seeds)]
    rngs = [np.random.default_rng(1), Draws(2.0), np.random.default_rng(2),
            np.random.default_rng(3)]
    vecs = np.array([c.vec for c in props])
    for t in range(1, 5):
        _, new = updyn._advance(rows, g, params, rngs, vecs, t)
        assert new[1] == 0 and min(new[0], new[2], new[3]) > 1
        for r, ref in enumerate(refs):
            ref.advance(np.flatnonzero(rows.row("activation_time", r) == t), t)
            assert ref.matches(rows.row("activation_time", r), rows.row("live_degree", r),
                               rows.row("live_features", r), rows.row("live_weights", r),
                               rows.row("active_wsum", r)), (t, r)


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

    def tracked(rec, **kwargs):
        nonlocal most_alive
        seen.append(weakref.ref(rec))
        most_alive = max(most_alive, sum(r() is not None for r in seen))
        return summarize(rec, **kwargs)

    monkeypatch.setattr(experiments, "_summarize", tracked)
    runs = [(self_propagation(g, v), [v], derive_seed(4, v)) for v in range(40)]
    summaries = run_batch(g, runs, SimParams(gamma=0.15, epsilon=3))
    assert len(summaries) == len(seen) == 40
    assert most_alive <= 4


def test_run_batch_pool_keeps_order_and_tally(pa_graph_small):
    g = pa_graph_small
    params = SimParams(gamma=0.15, epsilon=3)
    runs = [(self_propagation(g, v), [v], derive_seed(9, v, i))
            for v in (0, 5, 9, 57, 199) for i in range(4)]
    serial, parallel = RunTally(), RunTally()
    assert run_batch(g, runs, params, jobs=1, tally=serial) == \
        run_batch(g, runs, params, jobs=2, tally=parallel)
    assert serial == parallel and serial.cascades == len(runs)


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


BAD_RNG_SEEDS = [-1, np.int64(-3), 2.7, True, np.True_, "5", float("nan"), None, [1]]


@pytest.mark.parametrize("bad", BAD_RNG_SEEDS, ids=repr)
def test_rng_seed_checked_before_any_run(pa_graph_small, monkeypatch, bad):
    # the seventh run's seed is refused when the iterator is made, before
    # the first batch of four has run
    g = pa_graph_small
    monkeypatch.setattr(updyn, "CHUNK_CELLS", 20 * g.n)  # 4 rows
    runs = [(self_propagation(g, v), [v], derive_seed(1, v)) for v in range(10)]
    runs[6] = (runs[6][0], runs[6][1], bad)
    with pytest.raises(updyn.InvalidParameter, match="rng_seed"):
        iter_cascades(g, runs, SimParams(gamma=0.15))
    with pytest.raises(updyn.InvalidParameter, match="rng_seed"):
        updyn.check_rng_seed(bad)


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint64(2 ** 64 - 1), 2 ** 64 - 1,
                                  2 ** 70])
def test_rng_seed_accepts_non_negative_integers(pa_graph_small, seed):
    g = pa_graph_small
    c = self_propagation(g, 3)
    params = SimParams(gamma=0.15, max_steps=40)
    (rec,) = run_cascades(g, [(c, [3], seed)], params)
    assert type(rec.rng_seed) is int and rec.rng_seed == int(seed)
    assert rec.to_dict() == run_cascade(g, c, [3], params, int(seed)).to_dict()
    _assert_matches_reference(g, [(c, [3], int(seed))], params, [rec])


def test_batch_outlives_two_doublings_of_its_waves(pa_graph_small):
    # a cooling period of 140 steps keeps every row past step 128, four
    # times the waves matrix's starting width of 32 columns
    g = pa_graph_small
    params = SimParams(gamma=0.02, epsilon=140)
    runs = _mixed_runs(g, 5, seed=21)
    tally = RunTally()
    records = run_cascades(g, runs, params, tally)
    assert min(r.converged_at for r in records) > 128
    assert len({r.converged_at for r in records}) > 1
    _assert_matches_reference(g, runs, params, records, tally)


def test_every_row_ends_on_the_same_step(pa_graph_small):
    g = pa_graph_small
    # nobody fires at gamma 0, so every row cools at step epsilon
    runs = _mixed_runs(g, 6, seed=2)
    params = SimParams(gamma=0.0, epsilon=4)
    records = run_cascades(g, runs, params)
    assert {r.converged_at for r in records} == {4}
    _assert_matches_reference(g, runs, params, records)
    # identical runs from the hub follow one trajectory and end together
    c = self_propagation(g, 0)
    runs = [(c, [0], 8)] * 5
    params = SimParams(gamma=0.15, epsilon=3)
    records = run_cascades(g, runs, params)
    assert len({r.converged_at for r in records}) == 1 and records[0].converged_at > 3
    _assert_matches_reference(g, runs, params, records)


def test_cap_and_end_of_cooling_on_the_same_step(pa_graph_small):
    # the cap is set to the step at which the shortest viral run cools
    # anyway, so that run ends by cooling, not by the cap, while the longer
    # runs beside it are capped
    g = pa_graph_small
    runs = _mixed_runs(g, 8, seed=17)
    free = run_cascades(g, runs, SimParams(gamma=0.6, epsilon=2))
    cap = min(r.converged_at for r in free if r.converged_at > 10)
    assert max(r.converged_at for r in free) > cap
    params = SimParams(gamma=0.6, epsilon=2, max_steps=cap)
    records = run_cascades(g, runs, params)
    for a, b in zip(free, records):
        assert b.converged_at == min(a.converged_at, cap)
        assert b.hit_cap == (a.converged_at > cap)
    assert any(r.hit_cap for r in records)
    assert any(r.converged_at == cap and not r.hit_cap for r in records)
    _assert_matches_reference(g, runs, params, records)


def test_batch_compacts_to_one_row_and_keeps_running(pa_graph_small, monkeypatch):
    # run 0 has every node active and ends after its cooling period; the
    # other row then runs on alone for many steps
    g = pa_graph_small
    params = SimParams(gamma=0.1, epsilon=3)
    c = self_propagation(g, 0)
    runs = [(c, list(range(g.n)), 1), (c, [0], 4)]
    widths = []
    advance = updyn._advance

    def counted(rows, *args):
        widths.append(len(rows.active_count))
        return advance(rows, *args)

    monkeypatch.setattr(updyn, "_advance", counted)
    records = run_cascades(g, runs, params)
    assert records[0].converged_at == 3 and records[1].converged_at > 10
    assert widths[:3] == [2, 2, 2] and set(widths[3:]) == {1}
    _assert_matches_reference(g, runs, params, records)


def test_runs_sharing_a_seed_draw_their_own_streams(pa_graph_small):
    # each run draws the stream default_rng(seed) gives when it runs alone:
    # the runs share the seed's SeedSequence, never a generator
    g = pa_graph_small
    rng = np.random.default_rng(3)
    props = [Propagation.from_vector(rng.standard_normal(g.features.k)) for _ in range(4)]
    runs = [(c, [v], 99) for c, v in zip(props, (0, 5, 57, 199))]
    params = SimParams(gamma=0.2, epsilon=3)
    records = run_cascades(g, runs, params)
    for (c, seeds, rng_seed), rec in zip(runs, records):
        assert rec.to_dict() == run_cascade(g, c, seeds, params, rng_seed).to_dict()
    _assert_matches_reference(g, runs, params, records)
    gens = updyn._generators(runs)
    assert len({id(gen) for gen in gens}) == len(runs)
    solo = np.random.default_rng(99).random(6)
    for gen in gens:
        assert np.array_equal(gen.random(6), solo)


def test_thinning_cap_in_a_batch(path4_uniform):
    # the batch path thins with the one-row lines: in row 0 node 1's active
    # mass sits a few ulps above its degree, so its probability passes gamma
    # by rounding and a draw of exactly gamma fires; row 1's node 2 stays
    # below gamma and does not
    g = path4_uniform
    c = self_propagation(g, 0)
    params = SimParams(alpha=0.5, beta=0.5, gamma=0.05)
    rows = _stacked([init_state(g, c, seeds, params) for seeds in ([0], [3])])
    assert not rows.owns_live
    degree = g.weighted_degree[1]
    rows.row("active_wsum", 0)[1] = degree + 4 * np.spacing(degree)
    made, new = updyn._advance(rows, g, params, [Draws(params.gamma)] * 2, None, 1)
    assert made == 2 and new.tolist() == [1, 0]
    assert rows.row("activation_time", 0)[1] == 1 and rows.row("activation_time", 1)[2] == -1
