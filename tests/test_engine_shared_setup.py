"""Runs that share a propagation share its set-up.

``iter_cascades`` checks a propagation (and a seed list) once for a stretch
of consecutive runs holding the same object, and ``_affinities`` makes one
matrix-vector product for a stretch of rows whose vector is the same
object. Every record must still equal the run stepped alone.
"""

import numpy as np
import pytest

from contagion import updyn
from contagion.rng import derive_seed
from contagion.updyn import Propagation, SimParams, run_cascade, run_cascades, self_propagation
from tests.oracles import reference_cascade

PARAMS = SimParams(gamma=0.15, max_steps=40)


def _assert_solo(g, runs, params, records):
    for (c, seeds, rng_seed), rec in zip(runs, records, strict=True):
        solo = run_cascade(g, c, seeds, params, rng_seed)
        assert rec.to_dict() == solo.to_dict()
        times, waves, *_ = reference_cascade(g, updyn.as_propagation(c), seeds, params,
                                             rng_seed)
        assert np.array_equal(rec.activation_time, times)
        assert np.array_equal(rec.new_per_step, waves)


def _runs(vectors, seeds, count):
    return [(c, seeds, derive_seed(5, "shared", i, j))
            for i, c in enumerate(vectors) for j in range(count)]


@pytest.mark.parametrize("params", [PARAMS, SimParams(gamma=0.15, max_steps=40, drift=0.3)],
                         ids=["static", "drift"])
def test_runs_sharing_one_propagation(pa_graph_small, params):
    g = pa_graph_small
    c, seeds = self_propagation(g, 57), [57]
    runs = _runs([c, self_propagation(g, 3), c], seeds, 6)
    records = run_cascades(g, runs, params)
    assert len({r.final_spread for r in records}) > 1
    _assert_solo(g, runs, params, records)


def test_equal_valued_distinct_vectors(pa_graph_small):
    # each run holds its own copy: no stretch is shared, and the rows still
    # agree with the shared stretch's bit for bit
    g = pa_graph_small
    base = self_propagation(g, 57)
    copies = [(Propagation(vec=base.vec.copy()), [57], derive_seed(6, i)) for i in range(5)]
    shared = [(base, [57], rng_seed) for _, _, rng_seed in copies]
    records = run_cascades(g, copies, PARAMS)
    _assert_solo(g, copies, PARAMS, records)
    for a, b in zip(records, run_cascades(g, shared, PARAMS), strict=True):
        assert a.to_dict() == b.to_dict()
    rows = updyn._affinities(g, [prop for prop, _, _ in copies] + [base, base]).reshape(7, g.n)
    solo = updyn.init_state(g, base, [57], PARAMS).affinity_hat
    assert all(row.tobytes() == solo.tobytes() for row in rows)


def test_chunk_boundary_inside_a_stretch(pa_graph_small, monkeypatch):
    g = pa_graph_small
    rng = np.random.default_rng(2)
    raw = rng.standard_normal(g.features.k)  # a raw vector, normalized once
    runs = _runs([self_propagation(g, 0), raw, self_propagation(g, 199)], [0, 1], 5)
    monkeypatch.setattr(updyn, "CHUNK_CELLS", 5 * 4 * g.n)  # 4 rows: stretches of 5 split
    records = run_cascades(g, runs, PARAMS)
    _assert_solo(g, runs, PARAMS, records)


def test_each_stretch_checked_once(pa_graph_small, monkeypatch):
    g = pa_graph_small
    calls = {"prop": 0, "seeds": 0}
    check_prop, check_seeds = updyn._checked_propagation, updyn.check_seeds

    def counted_prop(*args):
        calls["prop"] += 1
        return check_prop(*args)

    def counted_seeds(*args):
        calls["seeds"] += 1
        return check_seeds(*args)

    monkeypatch.setattr(updyn, "_checked_propagation", counted_prop)
    monkeypatch.setattr(updyn, "check_seeds", counted_seeds)
    a, b, seeds = self_propagation(g, 0), self_propagation(g, 5), [0]
    runs = _runs([a, b, a], seeds, 4)
    records = run_cascades(g, runs, PARAMS)
    assert calls == {"prop": 3, "seeds": 1}
    assert all(rec.propagation is c for (c, _, _), rec in zip(runs, records))


def test_shared_objects_still_checked(pa_graph_small):
    g = pa_graph_small
    bad_seeds, bad_vec = [g.n], [1.0, 0.0]
    with pytest.raises(updyn.InvalidParameter):
        run_cascades(g, [(self_propagation(g, 0), bad_seeds, i) for i in range(3)], PARAMS)
    with pytest.raises(updyn.InvalidParameter):
        run_cascades(g, [(bad_vec, [0], i) for i in range(3)], PARAMS)
