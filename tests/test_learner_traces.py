"""Trace construction against the loops it replaced (``tests/oracles.py``)."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from contagion import learner
from contagion.errors import InvalidParameter
from contagion.learner import CascadeTrace, reconstruct_traces, traces_from_records
from tests.oracles import learner_reconstruct_traces, learner_traces_from_records


def random_logs(seed, int_ids=False, int_products=False):
    """Trust and rating logs with duplicate events (some earlier, some
    later), time ties, single-rater products, self-trust, repeated trust
    pairs and raters absent from the trust file."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    users = list(range(n)) if int_ids else [f"u{i}" for i in range(n)]
    absent = [n + i if int_ids else f"x{i}" for i in range(3)]
    trust = [(users[a], users[b]) for a, b in rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))]
    trust += [(users[0], users[0])] + trust[:2]
    raters = users + absent
    products = list(range(15)) if int_products else [f"p{i}" for i in range(15)]
    ratings = [(raters[r], products[p], int(t)) for r, p, t in zip(
        rng.integers(0, len(raters), size=int(rng.integers(0, 120))),
        rng.integers(0, len(products), size=120), rng.integers(0, 6, size=120))]
    ratings += [(u, p, t + int(rng.integers(-2, 3))) for u, p, t in ratings[:5]]
    return trust, ratings


@pytest.mark.parametrize("int_ids, int_products", [(False, False), (True, False), (True, True)])
def test_reconstruct_traces_match_loop(int_ids, int_products):
    for seed in range(150):
        trust, ratings = random_logs(seed, int_ids, int_products)
        got = reconstruct_traces(trust, ratings)
        assert got == learner_reconstruct_traces(trust, ratings), seed
        # any iterable of rows will do
        assert reconstruct_traces(iter(trust), iter(ratings)) == got


def test_reconstruct_traces_cover_the_log_cases():
    trust = [("a", "b"), ("a", "b"), ("c", "c"), ("c", "a"), ("d", "a")]
    ratings = [("b", "p", 3), ("a", "p", 5), ("b", "p", 1), ("c", "p", 5), ("d", "p", 5),
               ("e", "p", 0), ("a", "solo", 1), ("b", "q", 2), ("a", "q", 2)]
    traces = reconstruct_traces(trust, ratings)
    assert traces == learner_reconstruct_traces(trust, ratings)
    (p, q) = traces
    # b's earliest event counts; c, d tie with a at 5 and order by str; e is
    # in no trust pair; c's self-trust adds nothing
    assert p.members == ("e", "b", "a", "c", "d")
    assert p.edges == (("b", "a"),)
    assert q.members == ("a", "b") and q.edges == ()
    # times are cast with int(), fractions dropped
    assert reconstruct_traces(trust, [(u, p, t + 0.75) for u, p, t in ratings]) == traces


def test_reconstruct_traces_with_wide_time_range():
    # the (product, user, time) keys no longer fit one int64: lexsorted
    trust, ratings = random_logs(11)
    ratings = [(u, p, t * 2**59) for u, p, t in ratings]
    assert max(t for *_, t in ratings) - min(t for *_, t in ratings) >= 2**61
    traces = reconstruct_traces(trust, ratings)
    assert traces and traces == learner_reconstruct_traces(trust, ratings)


@pytest.mark.parametrize("times", [(-5 * 10**18, 5 * 10**18), (0, 10**20), (-(10**20), 10**20)])
def test_reconstruct_traces_with_times_beyond_int64(times):
    # the times' span, or the times themselves, leave int64: ranked first
    trust, ratings = random_logs(11)
    ratings = [(u, p, times[t % 2] + t) for u, p, t in ratings]
    traces = reconstruct_traces(trust, ratings)
    assert traces and traces == learner_reconstruct_traces(trust, ratings)
    assert reconstruct_traces(trust, [(u, p, str(t)) for u, p, t in ratings]) == traces


def test_reconstruct_traces_rejects_malformed_rows():
    with pytest.raises(ValueError):
        reconstruct_traces([], [("u", "p")])
    with pytest.raises(ValueError):
        reconstruct_traces([("u", "v", "w")], [("u", "p", 1), ("v", "p", 2)])


def random_records(seed, n):
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(int(rng.integers(1, 8))):
        time = rng.integers(0, 5, size=n)
        time[rng.random(n) < rng.random()] = -1
        records.append(SimpleNamespace(activation_time=time))
    return records


def test_traces_from_records_match_loop(pa_graph_small):
    g = pa_graph_small
    for seed in range(60):
        records = random_records(seed, g.n)
        got = traces_from_records(records, g, id_prefix=f"s{seed}-")
        assert got == learner_traces_from_records(records, g, id_prefix=f"s{seed}-"), seed
    assert traces_from_records([SimpleNamespace(activation_time=np.full(g.n, -1))], g) == []


HASH_PROBE = """
import json
from contagion.learner import reconstruct_traces
# u trusts five users who all adopted before u
trust = [("u", f"v{i}") for i in range(5)]
ratings = [(f"v{i}", "p", i) for i in range(5)] + [("u", "p", 9)]
print(json.dumps([trace.edges for trace in reconstruct_traces(trust, ratings)]))
"""


def test_edge_order_does_not_follow_the_hash_seed():
    src = str(Path(learner.__file__).parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    outputs = [
        subprocess.run([sys.executable, "-c", HASH_PROBE], capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2", "3")
    ]
    assert [json.loads(out) for out in outputs] == [[[[f"v{i}", "u"] for i in range(5)]]] * 3


def test_trace_check_names_the_first_bad_edge():
    members = ("a", "b", "c")
    with pytest.raises(InvalidParameter, match="edge a->x leaves the member set"):
        CascadeTrace("t", members, (("a", "b"), ("a", "x"), ("c", "a")))
    with pytest.raises(InvalidParameter, match="influencer c does not precede a"):
        CascadeTrace("t", members, (("a", "b"), ("c", "a"), ("a", "x")))
    with pytest.raises(InvalidParameter, match="influencer b does not precede b"):
        CascadeTrace("t", members, (("b", "b"),))
    for edges in ((("a", "b", "c"),), (("a",), ("b", "c", "a"))):
        with pytest.raises(InvalidParameter, match="pairs"):
            CascadeTrace("t", members, edges)
    # the member positions of each edge's ends, kept for compiling designs
    trace = CascadeTrace("t", members, (("a", "c"), ("b", "c")))
    assert trace._edge_ranks.tolist() == [[0, 1], [2, 2]]
    assert CascadeTrace("t", members, ())._edge_ranks.shape == (2, 0)
