import os

# The determinism digests were taken with BLAS and OpenMP at 2 threads, and a
# dense eigendecomposition rounds differently at another count. The count is
# read when numpy loads its BLAS, so it is pinned before the first import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from contagion.netgen import (  # noqa: E402
    RawGraph,
    _finish_raw,
    assign_edge_weights,
    build_graph,
    make_unit_features,
)

# HYPOTHESIS_PROFILE=ci replays the same examples on every run and prints the
# blob that reproduces a failure; without it each run explores afresh
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def pa_graph_small():
    """PA(200, 2) with 8-dim features, shared across tests."""
    return build_graph(200, 2, 8, seed=11)


@pytest.fixture(scope="session")
def pa_graph_1000():
    """The experiment-scale fixture, PA(1000, 2) with 10-dim features."""
    return build_graph(1000, 2, 10, seed=42)


class Draws:
    """Stands in for a Generator: every uniform is the same value."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


def raw_from_edges(n, edges) -> RawGraph:
    return _finish_raw(n, edges)


def uniform_feature_graph(n, edges, dim=2):
    """Graph where every node has the identical unit feature (1, 0, ...)."""
    raw = _finish_raw(n, edges)
    rows = np.zeros((n, dim))
    rows[:, 0] = 1.0
    return assign_edge_weights(raw, make_unit_features(rows))


@pytest.fixture
def path4_uniform():
    """4-node path 0-1-2-3 with identical features, so all edge weights are 1."""
    return uniform_feature_graph(4, [(0, 1), (1, 2), (2, 3)])
