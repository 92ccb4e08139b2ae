import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagion import netgen
from contagion.errors import InvalidParameter
from contagion.netgen import (
    CORE,
    INTERMEDIATE,
    PERIPHERY,
    assign_edge_weights,
    build_graph,
    diameter,
    generate_pa,
    load_graph,
    make_unit_features,
    save_graph,
    segment_nodes,
    spectral_embed,
)
from tests.conftest import raw_from_edges
from tests.oracles import diameter_all_sources, pa_edges_cumsum, save_graph_reference


def test_pa_edge_count_1000():
    g = generate_pa(1000, 2, rng_seed=3)
    assert g.n == 1000
    assert len(g.edges) == 1997  # r(r+1)/2 + r(n-r-1)


def test_pa_triangle_and_k4():
    g3 = generate_pa(3, 2, rng_seed=0)
    assert sorted(map(tuple, g3.edges)) == [(0, 1), (0, 2), (1, 2)]
    g4 = generate_pa(4, 3, rng_seed=0)
    assert len(g4.edges) == 6  # K4: the single arrival attaches to all seeds


def test_pa_no_self_loops_or_duplicates():
    g = generate_pa(300, 3, rng_seed=9)
    pairs = set(map(tuple, g.edges))
    assert len(pairs) == len(g.edges)
    assert all(a < b for a, b in pairs)
    assert len(g.edges) == 6 + 3 * (300 - 4)


def test_pa_deterministic():
    a = generate_pa(150, 2, rng_seed=5)
    b = generate_pa(150, 2, rng_seed=5)
    assert np.array_equal(a.edges, b.edges)
    c = generate_pa(150, 2, rng_seed=6)
    assert not np.array_equal(a.edges, c.edges)


def test_pa_rejects_bad_sizes():
    with pytest.raises(InvalidParameter) as err:
        generate_pa(2, 2, rng_seed=0)
    assert err.value.field == "nodes"
    with pytest.raises(InvalidParameter):
        generate_pa(10, 0, rng_seed=0)


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_pa_matches_cumsum_oracle(r):
    # the Fenwick descent must pick exactly the node a full cumsum picks
    for n in (r + 1, r + 2, 50, 1000):
        for seed in (0, 1, 17):
            assert np.array_equal(generate_pa(n, r, rng_seed=seed).edges,
                                  pa_edges_cumsum(n, r, seed)), (n, seed)


def test_pa_heavy_tail_degrees():
    # max degree at least 10x the median, across 5 seeds
    for seed in range(5):
        g = generate_pa(1000, 2, rng_seed=seed)
        deg = g.degree
        assert deg.max() >= 10 * np.median(deg)


def test_embed_trivial_eigenpair():
    g = generate_pa(60, 2, rng_seed=1)
    f = spectral_embed(g, 4)
    assert f.eigenvalues[0] == pytest.approx(0.0, abs=1e-9)
    col0 = f.basis[:, 0]
    assert np.allclose(col0, col0[0])  # constant vector spans the nullspace


def test_embed_path3_second_eigenvalue():
    # P3 Laplacian spectrum is {0, 1, 3}
    g = raw_from_edges(3, [(0, 1), (1, 2)])
    f = spectral_embed(g, 2)
    assert f.eigenvalues[1] == pytest.approx(1.0, abs=1e-9)


def test_embed_component_nullspace():
    # two disjoint triangles: exactly 2 eigenvalues below 1e-9, plus a warning
    g = raw_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    f = spectral_embed(g, 3)
    assert np.sum(f.eigenvalues < 1e-9) == 2
    assert f.warnings


def test_embed_reports_min_eigengap():
    # P3 Laplacian spectrum is {0, 1, 3}
    g = raw_from_edges(3, [(0, 1), (1, 2)])
    assert spectral_embed(g, 1).min_eigengap is None
    f = spectral_embed(g, 3)
    assert f.min_eigengap == pytest.approx(1.0, abs=1e-9)
    assert f.warnings == ()


def test_embed_warns_on_repeated_eigenvalue(caplog):
    # K4 minus an edge has spectrum {0, 2, 4, 4}
    g = raw_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    f = spectral_embed(g, 3)
    assert f.min_eigengap == pytest.approx(2.0, abs=1e-9) and f.warnings == ()
    with caplog.at_level("WARNING", logger="contagion.netgen"):
        f = spectral_embed(g, 4)
    assert f.min_eigengap < netgen.MIN_EIGENGAP
    assert len(f.warnings) == 1 and "gap" in f.warnings[0]
    assert f.warnings[0] in caplog.text


def test_embed_row_norms_and_residual():
    g = generate_pa(120, 2, rng_seed=2)
    f = spectral_embed(g, 10)
    norms = np.linalg.norm(f.rows, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-9)
    assert f.max_residual <= 1e-8 * g.n


def _dense_reference(monkeypatch, g, k):
    with monkeypatch.context() as m:
        m.setattr(netgen, "DENSE_EIGH_MAX_N", g.n)
        return spectral_embed(g, k)


@pytest.mark.parametrize("n", [1500, 2500])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_embed_matches_dense(monkeypatch, n, seed):
    g = generate_pa(n, 2, rng_seed=seed)
    sparse = spectral_embed(g, 10)
    dense = _dense_reference(monkeypatch, g, 10)
    assert (sparse.solver, dense.solver) == ("sparse", "dense")
    assert sparse.max_residual <= 1e-8
    assert np.abs(sparse.eigenvalues - dense.eigenvalues).max() <= 1e-9
    assert np.abs(sparse.rows - dense.rows).max() <= 1e-9
    # a fixed ARPACK start vector makes repeated calls bit-identical
    assert np.array_equal(spectral_embed(g, 10).rows, sparse.rows)


def test_embed_solver_follows_size(monkeypatch):
    g = generate_pa(40, 2, rng_seed=4)
    assert spectral_embed(g, 5).solver == "dense"
    monkeypatch.setattr(netgen, "DENSE_EIGH_MAX_N", 10)
    small = spectral_embed(g, 5)
    assert small.solver == "sparse"
    assert np.abs(small.rows - _dense_reference(monkeypatch, g, 5).rows).max() <= 1e-9
    # ARPACK needs k < n - 1; beyond that the dense solver serves any size
    assert spectral_embed(g, 39).solver == "dense"


def test_embed_rejects_bad_k():
    g = generate_pa(10, 2, rng_seed=0)
    with pytest.raises(InvalidParameter):
        spectral_embed(g, 11)
    with pytest.raises(InvalidParameter):
        spectral_embed(g, 0)


def test_edge_weight_calibration():
    raw = raw_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    g = assign_edge_weights(raw, make_unit_features(rows))
    w = {tuple(e): w for e, w in zip(map(tuple, raw.edges), g.edge_weights)}
    assert w[(0, 1)] == pytest.approx(1.0)  # aligned
    assert w[(0, 2)] == pytest.approx(0.5)  # orthogonal
    assert w[(0, 3)] == pytest.approx(0.0)  # antipodal


def test_weights_symmetric_bounded_and_degrees(pa_graph_small):
    g = pa_graph_small
    assert (g.weights != g.weights.T).nnz == 0
    assert np.all(g.edge_weights >= 0.0) and np.all(g.edge_weights <= 1.0)
    ends = g.raw.edges
    recomputed = (np.bincount(ends[:, 0], weights=g.edge_weights, minlength=g.n)
                  + np.bincount(ends[:, 1], weights=g.edge_weights, minlength=g.n))
    assert np.all(np.abs(recomputed - g.weighted_degree) <= 1e-12)
    assert np.all(g.weighted_degree > 0)


def test_csr_layout_and_reverse_permutation(pa_graph_small):
    g = pa_graph_small
    raw = g.raw
    assert np.array_equal(raw.degree, np.bincount(raw.edges.ravel(), minlength=g.n))
    for v in (0, 57, 199):
        expected = sorted({int(b) for a, b in raw.edges if a == v} | {int(a) for a, b in raw.edges if b == v})
        assert list(raw.neighbors(v)) == expected
    # weights.data lines up with raw.indices and rev points at the mirror entry
    assert np.array_equal(g.weights.indptr, raw.indptr)
    assert np.array_equal(g.weights.indices, raw.indices)
    rows = np.repeat(np.arange(g.n), raw.degree)
    assert np.array_equal(raw.indices[g.rev], rows)
    assert np.array_equal(rows[g.rev], raw.indices)
    assert np.array_equal(g.weights.data[g.rev], g.weights.data)
    weight_of = {(int(a), int(b)): w for (a, b), w in zip(raw.edges, g.edge_weights)}
    for e in range(0, len(raw.indices), 37):
        a, b = sorted((int(rows[e]), int(raw.indices[e])))
        assert g.weights.data[e] == weight_of[(a, b)]
    pos = raw.row_positions([57, 3, 58])
    assert np.array_equal(raw.indices[pos], np.concatenate(
        [raw.neighbors(57), raw.neighbors(3), raw.neighbors(58)]))
    assert len(raw.row_positions([])) == 0
    assert np.array_equal(raw.indices[raw.row_positions([57])], raw.neighbors(57))


def test_feature_dimension_mismatch():
    raw = raw_from_edges(3, [(0, 1), (1, 2)])
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidParameter):
        assign_edge_weights(raw, make_unit_features(rows))


def test_segments_counts(pa_graph_1000):
    seg = pa_graph_1000.segments
    assert np.sum(seg == CORE) == 100
    assert np.sum(seg == PERIPHERY) == 100
    assert np.sum(seg == INTERMEDIATE) == 800


def test_segments_star_hub_in_core():
    raw = raw_from_edges(11, [(0, i) for i in range(1, 11)])
    labels = segment_nodes(raw)
    assert labels[0] == CORE


def test_segments_tie_break_on_cycle():
    raw = raw_from_edges(10, [(i, (i + 1) % 10) for i in range(10)])
    labels = segment_nodes(raw)
    assert labels[0] == CORE  # lowest id wins the tie
    assert labels[9] == PERIPHERY
    assert np.sum(labels == CORE) == 1


def test_diameter_known_graphs():
    path = raw_from_edges(6, [(i, i + 1) for i in range(5)])
    assert diameter(path) == 5
    star = raw_from_edges(7, [(0, i) for i in range(1, 7)])
    assert diameter(star) == 2
    k4 = raw_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert diameter(k4) == 1


def _barbell(m, bridge):
    """Two m-cliques joined by a path of ``bridge`` edges."""
    clique = [(i, j) for i in range(m) for j in range(i + 1, m)]
    path = list(range(m - 1, m + bridge))
    edges = clique + list(zip(path, path[1:]))
    off = m + bridge - 1
    edges += [(off + i, off + j) for i, j in clique]
    return raw_from_edges(2 * m + bridge - 1, edges)


@pytest.mark.parametrize("g, expected", [
    (raw_from_edges(1, []), 0),
    (raw_from_edges(2, [(0, 1)]), 1),
    (raw_from_edges(9, [(i, i + 1) for i in range(8)]), 8),
    (raw_from_edges(7, [(i, (i + 1) % 7) for i in range(7)]), 3),
    (raw_from_edges(8, [(i, (i + 1) % 8) for i in range(8)]), 4),
    (raw_from_edges(12, [(5, i) for i in range(12) if i != 5]), 2),
    (_barbell(4, 1), 3),
    (_barbell(5, 6), 8),
], ids=["single", "edge", "path9", "cycle7", "cycle8", "star12", "barbell4-1", "barbell5-6"])
def test_diameter_families(g, expected):
    assert diameter_all_sources(g.n, g.edges) == expected
    assert diameter(g) == expected


@st.composite
def connected_graphs(draw):
    """A random spanning tree on up to 40 nodes plus random extra edges."""
    n = draw(st.integers(2, 40))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    pairs = {tuple(sorted(e)) for e in tree + extra if e[0] != e[1]}
    perm = draw(st.permutations(range(n)))  # so hubs and deep leaves get any id
    return raw_from_edges(n, [(perm[a], perm[b]) for a, b in sorted(pairs)])


@settings(max_examples=300, deadline=None)
@given(connected_graphs())
def test_diameter_matches_all_source_bfs(g):
    assert diameter(g) == diameter_all_sources(g.n, g.edges)


def test_diameter_disconnected_errors():
    g = raw_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(InvalidParameter):
        diameter(g)


def test_diameter_sublinear_growth():
    small = np.mean([diameter(generate_pa(500, 2, s)) for s in range(3)])
    large = np.mean([diameter(generate_pa(4000, 2, s)) for s in range(3)])
    assert large / small < 2.0


def test_graph_roundtrip(tmp_path, pa_graph_small):
    path = tmp_path / "g.json"
    save_graph(pa_graph_small, path)
    loaded = load_graph(path)
    assert loaded.n == pa_graph_small.n
    assert np.array_equal(loaded.raw.edges, pa_graph_small.raw.edges)
    assert np.allclose(loaded.features.rows, pa_graph_small.features.rows)
    assert np.allclose(loaded.edge_weights, pa_graph_small.edge_weights)
    assert list(loaded.segments) == list(pa_graph_small.segments)
    doc = json.loads(path.read_text())
    assert set(doc) == {"n", "r", "seed", "edges", "features", "weights", "segments"}


def _loaded_without_meta(tmp_path):
    raw = generate_pa(50, 2, rng_seed=4)
    path = tmp_path / "bare.json"
    save_graph_reference(assign_edge_weights(raw, spectral_embed(raw, 3)), path)
    g = load_graph(path)
    assert g.meta == {"r": None, "seed": None}
    return g


@pytest.mark.parametrize("make", [
    lambda tmp_path: build_graph(1200, 2, 6, seed=8),
    lambda tmp_path: build_graph(80, 3, 5, seed=2),
    _loaded_without_meta,
], ids=["sparse-1200", "dense-80", "loaded-no-meta"])
def test_save_graph_bytes_match_reference_encoder(tmp_path, make):
    g = make(tmp_path)
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    save_graph(g, got)
    save_graph_reference(g, want)
    assert got.read_bytes() == want.read_bytes()


def test_save_graph_replaces_hard_linked_file(tmp_path, pa_graph_small):
    # the other name of a hard-linked graph path keeps its bytes
    path, other = tmp_path / "g.json", tmp_path / "keep.json"
    other.write_text("keep\n")
    os.link(other, path)
    save_graph(pa_graph_small, path)
    assert other.read_text() == "keep\n" and os.stat(path).st_nlink == 1
    assert np.array_equal(load_graph(path).raw.edges, pa_graph_small.raw.edges)


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_generate_pa_rejects_negative_seed(seed):
    with pytest.raises(InvalidParameter, match="seed"):
        generate_pa(10, 2, seed)


def _break_missing_weight(doc):
    doc["weights"].pop(3)


def _break_out_of_range_edge(doc):
    doc["edges"][0] = [0, doc["n"]]


def _break_short_segments(doc):
    doc["segments"] = doc["segments"][:-2]


def _break_duplicate_edge(doc):
    doc["edges"].append(list(doc["edges"][0]))
    doc["weights"].append(list(doc["weights"][0]))


def _break_feature_rows(doc):
    doc["features"] = doc["features"][:5]


def _break_self_loop(doc):
    doc["edges"].append([4, 4])
    doc["weights"].append([4, 4, 1.0])


@pytest.mark.parametrize("corrupt", [
    _break_missing_weight,
    _break_out_of_range_edge,
    _break_short_segments,
    _break_duplicate_edge,
    _break_feature_rows,
    _break_self_loop,
])
def test_load_graph_rejects_bad_documents(tmp_path, corrupt):
    path = tmp_path / "g.json"
    save_graph(build_graph(30, 2, 4, seed=3), path)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidParameter):
        load_graph(path)


def test_build_graph_meta():
    g = build_graph(50, 2, 4, seed=7)
    assert g.meta == {"r": 2, "seed": 7}
    assert g.features.k == 4


@pytest.mark.parametrize("content", [b'{"n": 3}\n{"n": 4}\n', b"", b"graph", b'{"n": ', b"\xff\xfe"],
                         ids=["json-lines", "empty", "text", "truncated", "not-utf8"])
def test_load_graph_reports_a_file_that_is_not_json(tmp_path, content):
    # a runs file or any other non-JSON file given as the graph
    path = tmp_path / "g.json"
    path.write_bytes(content)
    with pytest.raises(InvalidParameter, match=f"^graph: {path}: "):
        load_graph(path)
