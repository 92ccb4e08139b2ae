"""Generated lockstep batches against the one-run reference.

Each example is a small graph and a list of runs on it, advanced by
``run_cascades`` with ``CHUNK_CELLS`` set so that the runs fall into
batches of a drawn size: some batches hold one run, others compact down to
one live row and keep running. Every record must equal
``oracles.reference_cascade`` field by field, types and dtypes included,
and ``RunTally`` must equal the records' sums.

Hypothesis draws the shape of each example (sizes, parameters, how runs
share their inputs) and one integer that seeds a numpy generator for the
vectors, edges and seeds, so that vectors and seeds are distinct unless a
case asks for them to repeat.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagion import updyn
from contagion.netgen import assign_edge_weights, make_unit_features
from contagion.updyn import Propagation, RunTally, SimParams, run_cascades
from tests.conftest import raw_from_edges
from tests.oracles import reference_cascade


def _unit(rng, k):
    raw = rng.standard_normal(k)
    return raw / np.linalg.norm(raw)


def _graph(rng, n, k, edge_draws, antipodal):
    """Random pairs as edges (nodes no pair names stay isolated); each node's
    feature is +e0 or -e0 with probability ``antipodal``, else a random unit
    vector. An edge between +e0 and -e0 weighs 0, so a node whose every
    neighbour is antipodal to it has no tie mass."""
    pairs = rng.integers(0, n, size=(edge_draws, 2))
    edges = sorted({(int(min(a, b)), int(max(a, b))) for a, b in pairs if a != b}) or [(0, 1)]
    e0 = np.eye(k)[0]
    rows = [rng.choice([-1.0, 1.0]) * e0 if rng.random() < antipodal else _unit(rng, k)
            for _ in range(n)]
    return assign_edge_weights(raw_from_edges(n, edges), make_unit_features(np.array(rows)))


@st.composite
def params(draw):
    alpha, beta = draw(st.sampled_from([(1 / 3, 1 / 3), (0.0, 1.0), (0.1, 0.9), (1.0, 0.0),
                                        (0.5, 0.2)]))
    # short caps end runs early; long caps with a long cooling period keep
    # runs going for dozens of steps
    return SimParams(alpha=alpha, beta=beta,
                     gamma=draw(st.sampled_from([0.0, 0.05, 0.3, 0.999, 1.0, 1.7])),
                     epsilon=draw(st.one_of(st.integers(1, 4), st.integers(20, 45))),
                     drift=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
                     max_steps=draw(st.one_of(st.none(), st.integers(1, 6), st.integers(30, 80))),
                     require_contact=draw(st.booleans()))


@st.composite
def batches(draw):
    """Every engine path on graphs of at most 10 nodes. Runs share one
    ``Propagation``, hold equal-valued copies of it or hold distinct
    vectors (one may be a node's feature or its antipode); half of them
    share one seed list object; ``rng_seed`` values may repeat."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, k = draw(st.integers(2, 10)), draw(st.integers(2, 3))
    g = _graph(rng, n, k, draw(st.integers(1, 2 * n)), draw(st.sampled_from([0.0, 0.3, 0.8])))
    count = draw(st.integers(1, 12))
    sharing = draw(st.sampled_from(["shared", "copies", "distinct"]))
    base = Propagation(vec=rng.choice([-1.0, 1.0]) * g.features.rows[0]
                       if rng.random() < 0.3 else _unit(rng, k))
    repeats = draw(st.booleans())
    rng_seeds = [int(s) for s in rng.integers(0, 3 if repeats else 2 ** 62, size=count)]
    shared_seeds = sorted(rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist())
    runs = []
    for rng_seed in rng_seeds:
        if sharing == "shared":
            c = base
        elif sharing == "copies":
            c = Propagation(vec=base.vec.copy())
        else:
            c = Propagation(vec=_unit(rng, k))
        if rng.random() < 0.5:
            seeds = shared_seeds
        else:
            seeds = rng.choice(n, size=rng.integers(1, min(n, 3) + 1), replace=False).tolist()
        runs.append((c, seeds, rng_seed))
    return g, runs, draw(params()), draw(st.integers(1, 4))


@st.composite
def drifting_batches(draw):
    """Long, slow runs under drift on 30 to 50 nodes, in batches of 2 to 4
    rows: rows retire at scattered steps while the rest keep drifting, so
    a fault in how the state's rows are carried past a retire reaches the
    draws of the rows that remain."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, k = draw(st.integers(30, 50)), draw(st.integers(2, 3))
    g = _graph(rng, n, k, 2 * n, 0.0)
    runs = [(Propagation(vec=_unit(rng, k)), [int(rng.integers(n))], int(rng.integers(2 ** 62)))
            for _ in range(draw(st.integers(6, 10)))]
    params = SimParams(alpha=0.0, beta=1.0, gamma=draw(st.sampled_from([0.1, 0.2, 0.3])),
                       epsilon=draw(st.integers(15, 30)),
                       drift=draw(st.sampled_from([0.5, 1.0])),
                       max_steps=draw(st.one_of(st.none(), st.integers(50, 80))))
    return g, runs, params, draw(st.integers(2, 4))


@st.composite
def near_cap_batches(draw):
    """Runs whose activation probabilities sit within 0.1% of gamma, the
    thinning cap's edge: every feature lies along the propagation (affinity
    1 up to at most 1e-6), each target ties only to hubs and every hub is a
    seed (local term 1), and alpha + beta is at least 0.9995 (a global term
    of at most 5e-4). A draw fires below gamma but lands within 0.1% of it
    about once in a thousand targets, so each example has thousands."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    hubs, targets, k = draw(st.integers(1, 4)), draw(st.integers(1500, 3000)), draw(st.integers(2, 3))
    ties = [(int(h), hubs + t) for t in range(targets)
            for h in rng.choice(hubs, size=rng.integers(1, hubs + 1), replace=False)]
    direction = _unit(rng, k)
    rows = direction + draw(st.sampled_from([0.0, 1e-3])) * rng.standard_normal((hubs + targets, k))
    g = assign_edge_weights(raw_from_edges(hubs + targets, sorted(ties)),
                            make_unit_features(rows / np.linalg.norm(rows, axis=1, keepdims=True)))
    c = Propagation(vec=direction)
    seeds = list(range(hubs))
    runs = [(c, seeds, int(s)) for s in rng.integers(0, 2 ** 62, size=draw(st.integers(4, 8)))]
    alpha, beta = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.3, 0.6995)]))
    params = SimParams(alpha=alpha, beta=beta, gamma=draw(st.sampled_from([0.3, 0.7, 0.95, 0.999])),
                       epsilon=2)
    return g, runs, params, draw(st.integers(1, 4))


def _assert_batches_match_reference(g, runs, params, rows_per_batch):
    row_cells = 5 * g.n
    if params.drift > 0.0:
        row_cells += g.n * (1 + g.features.k) + len(g.raw.indices)
    tally = RunTally()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(updyn, "CHUNK_CELLS", rows_per_batch * row_cells)
        records = run_cascades(g, runs, params, tally)

    expected = RunTally()
    for (c, seeds, rng_seed), rec in zip(runs, records, strict=True):
        times, waves, spread, converged_at, hit_cap, draws = reference_cascade(
            g, c, seeds, params, rng_seed)
        assert rec.activation_time.dtype == times.dtype
        assert np.array_equal(rec.activation_time, times)
        assert rec.new_per_step.dtype == waves.dtype
        assert np.array_equal(rec.new_per_step, waves)
        assert (rec.final_spread, rec.converged_at, rec.hit_cap) == (spread, converged_at, hit_cap)
        assert (type(rec.final_spread), type(rec.converged_at), type(rec.hit_cap)) == \
            (int, int, bool)
        assert rec.seed_set == tuple(seeds) and all(type(s) is int for s in rec.seed_set)
        assert rec.rng_seed == rng_seed and type(rec.rng_seed) is int
        assert rec.propagation is c and rec.params is params and rec.model == "up"
        expected.add(RunTally(1, converged_at, draws, int(hit_cap)))
    assert tally == expected


@settings(max_examples=300, deadline=None)
@given(batches())
def test_lockstep_batches_match_reference(batch):
    _assert_batches_match_reference(*batch)


@settings(max_examples=100, deadline=None)
@given(drifting_batches())
def test_drifting_batches_match_reference(batch):
    _assert_batches_match_reference(*batch)


@settings(max_examples=10, deadline=None)
@given(near_cap_batches())
def test_near_cap_batches_match_reference(batch):
    _assert_batches_match_reference(*batch)
