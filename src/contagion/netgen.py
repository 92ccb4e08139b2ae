"""Preferential-attachment networks with spectral node features.

Pipeline: grow a PA graph, embed every node with the eigenvectors of the
graph Laplacian for the k smallest eigenvalues, calibrate edge weights from
feature similarity, and tag nodes with structural segments (core /
intermediate / periphery by degree decile).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .errors import InvalidParameter
from .files import open_new

logger = logging.getLogger(__name__)

CORE = "core"
INTERMEDIATE = "intermediate"
PERIPHERY = "periphery"

# Graphs up to this size are embedded with dense eigh, which keeps every
# pinned graph of that size bit-identical and is the reference the sparse
# shift-invert solver is tested against; larger graphs use the sparse solver.
DENSE_EIGH_MAX_N = 1000
# Shift-invert pole just below the Laplacian's zero eigenvalue, so L - sigma*I
# is positive definite and the smallest eigenvalues map to the largest.
_SHIFT = -1e-3
# BFS sources per batch in diameter: bounds the (sources, n) distance block.
_BFS_BATCH_CELLS = 1 << 21
# spectral_embed warns when two of its k eigenvalues lie closer than this:
# their eigenvectors, and so the feature rows, are then not well defined.
MIN_EIGENGAP = 1e-8


@dataclass(frozen=True)
class RawGraph:
    """Unweighted undirected graph with dense node ids 0..n-1 in arrival order.

    The adjacency is one symmetric CSR: the neighbours of v, in ascending
    order, sit at positions ``indptr[v]:indptr[v + 1]`` of ``indices``.
    """

    n: int
    edges: np.ndarray  # (m, 2) int64, each row i < j, rows sorted
    indptr: np.ndarray  # (n + 1,) row offsets into indices
    indices: np.ndarray  # (2m,) neighbour ids, row by row

    @property
    def degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def row_positions(self, rows) -> np.ndarray:
        """CSR positions of every entry of ``rows``, row after row in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 1:
            # single activations dominate dying cascades; a range is ~3x cheaper
            return np.arange(self.indptr[rows[0]], self.indptr[rows[0] + 1])
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        # each entry's offset from its position in the output; array methods
        # skip numpy's function wrappers on this per-step path
        offsets = (starts - counts.cumsum() + counts).repeat(counts)
        return offsets + np.arange(len(offsets))

    def adjacency(self) -> sp.csr_matrix:
        """0/1 symmetric adjacency in CSR form."""
        return sp.csr_matrix(
            (np.ones(len(self.indices)), self.indices, self.indptr), shape=(self.n, self.n)
        )


@dataclass(frozen=True)
class FeatureMatrix:
    """Unit-norm node feature rows from a Laplacian eigenbasis.

    ``basis`` holds the unit-column eigenvectors for the k smallest
    eigenvalues; ``rows`` is the same matrix with every row rescaled to unit
    L2 norm, which is the form consumed by the propagation dynamics.
    """

    rows: np.ndarray  # (n, k), each row unit norm
    eigenvalues: np.ndarray | None = None  # (k,) ascending
    basis: np.ndarray | None = None  # (n, k) unit columns, pre row-normalization
    max_residual: float = 0.0  # max_j ||L q_j - lambda_j q_j||_2
    min_eigengap: float | None = None  # smallest gap among the k eigenvalues; None for k = 1
    warnings: tuple = ()
    solver: str | None = None  # "dense" or "sparse"; None when not computed here

    @property
    def k(self) -> int:
        return self.rows.shape[1]

    def __post_init__(self):
        norms = np.linalg.norm(self.rows, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise InvalidParameter("features", "rows must have unit L2 norm")


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable network bundle: topology, features, weights, segments.

    ``weights`` has the CSR layout of ``raw``, so ``weights.data[e]`` is the
    weight of the edge to ``raw.indices[e]``; the same edge seen from its
    other endpoint sits at ``rev[e]``.
    """

    raw: RawGraph
    features: FeatureMatrix
    edge_weights: np.ndarray  # (m,) aligned with raw.edges
    weights: sp.csr_matrix  # symmetric weighted adjacency on raw's CSR layout
    rev: np.ndarray = field(repr=False)  # (2m,) CSR position of each entry's mirror
    weighted_degree: np.ndarray  # (n,)
    segments: np.ndarray  # (n,) of {core, intermediate, periphery}
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.raw.n


def generate_pa(n: int, r: int, rng_seed: int) -> RawGraph:
    """Grow a preferential-attachment graph G(n, r).

    Starts from a complete graph on r+1 nodes; every later arrival attaches
    to r distinct existing nodes drawn without replacement with probability
    proportional to current degree. Deterministic given ``rng_seed``.

    Degrees live in a Fenwick tree, so each draw costs O(log n) and growth
    O(n r log n). Its prefix sums are exact integers, so the descent picks
    the node ``searchsorted(cumsum(degree), u, "right")`` would.
    """
    if r < 1:
        raise InvalidParameter("attach", "attachment count must be >= 1")
    if n <= r:
        raise InvalidParameter("nodes", f"need more than attach={r} nodes, got {n}")
    if int(rng_seed) < 0:
        raise InvalidParameter("seed", f"must be >= 0, got {rng_seed}")
    if r * (n - r - 1) > np.iinfo(np.intp).max:
        raise InvalidParameter("nodes", "attach * (nodes - attach - 1) uniforms exceed the "
                                        f"largest array numpy can size ({np.iinfo(np.intp).max})")
    rng = np.random.default_rng(int(rng_seed))
    # every arrival's r uniforms in one block: the same doubles, in the same
    # order, as one scalar draw each
    uniforms = iter(rng.random(r * (n - r - 1)).tolist())

    edges = [(i, j) for i in range(r + 1) for j in range(i + 1, r + 1)]
    degree = [r] * (r + 1) + [0] * (n - r - 1)
    tree = _fenwick(degree)
    total = r * (r + 1)
    top = 1 << (int(n).bit_length() - 1)

    # the Fenwick adds are inlined: a call per add costs more than the add
    for v in range(r + 1, n):
        targets = []
        for _ in range(r):
            u = next(uniforms) * total
            # largest prefix length whose degree sum is <= u: that prefix
            # ends just before the first node whose cumulative sum exceeds u
            t, acc, step = 0, 0, top
            while step:
                nxt = t + step
                if nxt <= n and acc + tree[nxt] <= u:
                    t, acc = nxt, acc + tree[nxt]
                step >>= 1
            t = min(t, v - 1)
            targets.append(t)
            # drawn without replacement: t is out of the urn until v is placed
            i, delta = t + 1, -degree[t]
            while i <= n:
                tree[i] += delta
                i += i & -i
            total += delta
        for t in targets:
            edges.append((t, v))
            degree[t] += 1
            i, delta = t + 1, degree[t]
            while i <= n:
                tree[i] += delta
                i += i & -i
            total += delta
        degree[v] = r
        i = v + 1
        while i <= n:
            tree[i] += r
            i += i & -i
        total += r

    return _finish_raw(n, edges)


def _fenwick(values) -> list:
    """1-based Fenwick tree of integer ``values``: tree[i] sums a block ending at i."""
    tree = [0] + list(values)
    for i in range(1, len(tree)):
        parent = i + (i & -i)
        if parent < len(tree):
            tree[parent] += tree[i]
    return tree


def _finish_raw(n: int, edge_pairs) -> RawGraph:
    edges = np.sort(np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2), axis=1)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    if len(edges) and (edges[0, 0] < 0 or edges[:, 1].max() >= n):
        raise InvalidParameter("edges", f"node ids must lie in [0, {n})")
    if np.any(edges[:, 0] == edges[:, 1]):
        raise InvalidParameter("edges", "self-loops are not allowed")
    if np.any(np.all(edges[1:] == edges[:-1], axis=1)):
        raise InvalidParameter("edges", "duplicate edge")
    # both directions of every edge, sorted by (row, column)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return RawGraph(n=n, edges=edges, indptr=indptr, indices=dst[order])


def component_count(g: RawGraph) -> int:
    ncomp, _ = connected_components(g.adjacency(), directed=False)
    return int(ncomp)


def spectral_embed(g: RawGraph, k: int) -> FeatureMatrix:
    """Node features from the k smallest Laplacian eigenpairs.

    Computes L = D - A for the unweighted adjacency, takes the eigenvectors
    of the k smallest eigenvalues (unit columns), then renormalizes each row
    to unit L2 norm. Eigenvector signs are canonicalized so the entry of
    largest magnitude in each column is positive.

    Graphs of at most ``DENSE_EIGH_MAX_N`` nodes, and any k ARPACK cannot
    serve (k >= n - 1), use dense ``eigh``; larger ones use shift-invert
    Lanczos on the sparse Laplacian, whose rows agree with dense to ~1e-12.

    Records the smallest gap among the k eigenvalues and warns below
    ``MIN_EIGENGAP``. The gap to the (k+1)-th eigenvalue is not computed.
    """
    if k < 1 or k > g.n:
        raise InvalidParameter("embed_dim", f"need 1 <= k <= {g.n}, got {k}")
    warnings = ()
    ncomp = component_count(g)
    if ncomp > 1:
        msg = f"graph has {ncomp} connected components; embedding computed anyway"
        logger.warning(msg)
        warnings = (msg,)

    lap = sp.diags(g.degree.astype(np.float64)).tocsr() - g.adjacency()
    if g.n > DENSE_EIGH_MAX_N and k < g.n - 1:
        solver = "sparse"
        vals, vecs = _sparse_eigenpairs(lap, k)
    else:
        solver = "dense"
        vals, vecs = eigh(lap.toarray(), subset_by_index=[0, k - 1])

    # deterministic sign convention per column
    for j in range(k):
        col = vecs[:, j]
        pivot = np.argmax(np.abs(col))
        if col[pivot] < 0:
            vecs[:, j] = -col

    residual = float(np.linalg.norm(lap @ vecs - vecs * vals, axis=0).max())
    gap = float(np.diff(vals).min()) if k > 1 else None
    if gap is not None and gap < MIN_EIGENGAP:
        msg = (f"smallest gap among the {k} smallest Laplacian eigenvalues is {gap:.3g}, "
               f"below {MIN_EIGENGAP:g}; their eigenvectors are not well defined")
        logger.warning(msg)
        warnings += (msg,)

    row_norms = np.linalg.norm(vecs, axis=1)
    if np.any(row_norms < 1e-12):
        raise InvalidParameter("embed_dim", "degenerate zero feature row; increase k")
    rows = vecs / row_norms[:, None]
    return FeatureMatrix(
        rows=rows,
        eigenvalues=vals,
        basis=vecs,
        max_residual=residual,
        min_eigengap=gap,
        warnings=warnings,
        solver=solver,
    )


def _sparse_eigenpairs(lap: sp.csr_matrix, k: int):
    """The k smallest eigenpairs of ``lap`` by shift-invert ``eigsh``, ascending.

    The shifted Laplacian is factored once with a symmetric minimum-degree
    ordering (far less fill than the default COLAMD on PA graphs). ARPACK
    starts from a fixed vector, because its default random start differs
    between calls; it raises ``ArpackNoConvergence`` rather than returning
    unconverged pairs.
    """
    n = lap.shape[0]
    shifted = (lap - _SHIFT * sp.identity(n, format="csr")).tocsc()
    lu = splu(shifted, permc_spec="MMD_AT_PLUS_A")
    op_inv = LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(n)
    vals, vecs = eigsh(lap, k=k, sigma=_SHIFT, which="LM", OPinv=op_inv, v0=v0, tol=0)
    order = np.argsort(vals)
    return vals[order], np.ascontiguousarray(vecs[:, order])


def segment_nodes(g) -> np.ndarray:
    """Structural segment labels from the unweighted degree ranking.

    Nodes are ranked by descending degree with ties broken by ascending id;
    the top ceil(0.1 n) are core, the bottom ceil(0.1 n) periphery, the rest
    intermediate.
    """
    raw = g.raw if isinstance(g, WeightedGraph) else g
    degree = raw.degree
    n = raw.n
    order = np.lexsort((np.arange(n), -degree))  # descending degree, ascending id
    n_band = int(np.ceil(0.1 * n))
    labels = np.full(n, INTERMEDIATE, dtype="<U12")
    labels[order[:n_band]] = CORE
    labels[order[n - n_band :]] = PERIPHERY
    return labels


def assign_edge_weights(g: RawGraph, f: FeatureMatrix, meta: dict | None = None) -> WeightedGraph:
    """Weight every edge by calibrated feature similarity (1 + x_i . x_j) / 2.

    Non-edges carry weight zero. Also fills the weighted CSR, its
    reverse-edge permutation, weighted degrees and segments.
    """
    if f.rows.shape[0] != g.n:
        raise InvalidParameter("features", f"expected {g.n} rows, got {f.rows.shape[0]}")
    return _build_weighted(g, f, _edge_dot_weights(g, f.rows), meta)


def _edge_dot_weights(g: RawGraph, rows: np.ndarray) -> np.ndarray:
    i, j = g.edges[:, 0], g.edges[:, 1]
    dots = np.einsum("ij,ij->i", rows[i], rows[j])
    return np.clip((1.0 + dots) / 2.0, 0.0, 1.0)


def _build_weighted(g: RawGraph, f: FeatureMatrix, edge_weights: np.ndarray, meta=None) -> WeightedGraph:
    n = g.n
    rows = np.repeat(np.arange(n, dtype=np.int64), g.degree)
    cols = g.indices
    # (row, column) keys ascend along the CSR, (i, j) keys along raw.edges
    edge_of = np.searchsorted(g.edges[:, 0] * n + g.edges[:, 1],
                              np.minimum(rows, cols) * n + np.maximum(rows, cols))
    rev = np.searchsorted(rows * n + cols, cols * n + rows)
    mat = sp.csr_matrix((edge_weights[edge_of], g.indices, g.indptr), shape=(n, n))
    return WeightedGraph(
        raw=g,
        features=f,
        edge_weights=edge_weights,
        weights=mat,
        rev=rev,
        weighted_degree=np.asarray(mat.sum(axis=1)).ravel(),
        segments=segment_nodes(g),
        meta=dict(meta or {}),
    )


def build_graph(n: int, r: int, k: int, seed: int) -> WeightedGraph:
    """Full pipeline: generate, embed, weight."""
    raw = generate_pa(n, r, seed)
    feats = spectral_embed(raw, k)
    return assign_edge_weights(raw, feats, meta={"r": r, "seed": int(seed)})


def diameter(g: RawGraph) -> int:
    """Exact unweighted diameter by iFUB (Crescenzi et al. 2013).

    One BFS from the max-degree node u splits the nodes into distance levels.
    Levels are then swept deepest first with one BFS per node: once every
    level deeper than i is done, any pair not yet measured lies within
    distance i of u, hence within 2i of each other, so the sweep stops as
    soon as the best eccentricity seen reaches 2i. On PA graphs that is a
    handful of BFS runs instead of n.

    Raises on disconnected input, where the diameter is undefined.
    """
    adj = g.adjacency()
    start = int(np.argmax(g.degree))
    dist = dijkstra(adj, directed=False, unweighted=True, indices=start)
    if np.isinf(dist).any():
        raise InvalidParameter("graph", "diameter undefined for disconnected graph")
    level = dist.astype(np.int64)
    i = best = int(level.max())
    batch = max(1, _BFS_BATCH_CELLS // g.n)
    while best < 2 * i:
        fringe = np.flatnonzero(level == i)
        for lo in range(0, len(fringe), batch):
            ecc = dijkstra(adj, directed=False, unweighted=True, indices=fringe[lo : lo + batch])
            best = max(best, int(ecc.max()))
        i -= 1
    return best


def make_unit_features(rows) -> FeatureMatrix:
    """FeatureMatrix from explicit unit-norm rows (no spectral metadata)."""
    return FeatureMatrix(rows=np.asarray(rows, dtype=np.float64))


def save_graph(g: WeightedGraph, path) -> None:
    """Serialize to the toolkit's JSON graph schema."""
    edges = g.raw.edges.tolist()
    doc = {
        "n": g.n,
        "r": g.meta.get("r"),
        "seed": g.meta.get("seed"),
        "edges": edges,
        "features": g.features.rows.tolist(),
        "weights": [[a, b, w] for (a, b), w in zip(edges, g.edge_weights.tolist())],
        "segments": g.segments.tolist(),
    }
    # json.dumps encodes in C; json.dump always takes the pure-Python encoder
    with open_new(path) as fh:
        fh.write(json.dumps(doc))
        fh.write("\n")


def load_graph(path) -> WeightedGraph:
    """Rebuild a WeightedGraph from its JSON document.

    Raises InvalidParameter unless the file is a JSON document holding a
    simple graph on nodes 0..n-1, exactly one weight in [0, 1] per edge,
    n unit feature rows and, when present, n segment labels.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:  # not JSON, or not UTF-8 text
            raise InvalidParameter("graph", f"{path}: {err}") from None
    try:
        n = int(doc["n"])
        edges = np.asarray(doc["edges"], dtype=np.int64).reshape(-1, 2)
        table = np.asarray(doc["weights"], dtype=np.float64).reshape(-1, 3)
        rows = np.asarray(doc["features"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as err:
        raise InvalidParameter("graph", f"malformed graph document: {err}") from None
    if n < 1:
        raise InvalidParameter("graph", f"need n >= 1, got {n}")
    raw = _finish_raw(n, edges)

    pairs = np.sort(table[:, :2].astype(np.int64), axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    if len(table) != len(raw.edges) or not np.array_equal(pairs[order], raw.edges):
        raise InvalidParameter("weights", "need exactly one weight row per edge")
    edge_weights = table[order, 2]
    if not np.all((edge_weights >= 0.0) & (edge_weights <= 1.0)):
        raise InvalidParameter("weights", "edge weights must lie in [0, 1]")
    if rows.ndim != 2 or len(rows) != n:
        raise InvalidParameter("features", f"expected {n} feature rows")

    g = _build_weighted(raw, make_unit_features(rows), edge_weights,
                        meta={"r": doc.get("r"), "seed": doc.get("seed")})
    if "segments" in doc:
        segments = np.asarray(doc["segments"], dtype="<U12")
        if segments.shape != (n,) or not np.isin(segments, (CORE, INTERMEDIATE, PERIPHERY)).all():
            raise InvalidParameter("segments", f"expected {n} labels from core|intermediate|periphery")
        g.segments[:] = segments
    return g
