"""Independent brute-force oracles used by the test suite.

Everything here recomputes model quantities from first principles (explicit
sums over neighbors, full enumeration of Bernoulli outcome trees) without
touching the vectorized simulation path it is checking.
"""

import itertools
from collections import defaultdict, deque

import numpy as np


def incident_edges(g, v: int):
    """(neighbor, weight) pairs of v, scanned from the edge list."""
    for (a, b), wt in zip(g.raw.edges, g.edge_weights):
        if a == v:
            yield int(b), float(wt)
        elif b == v:
            yield int(a), float(wt)


def naive_activation_prob(g, active: frozenset, v: int, c_vec, params) -> float:
    """Eq.-by-eq per-node activation probability, plain python sums."""
    x_v = g.features.rows[v]
    aff = (1.0 + float(np.dot(c_vec, x_v))) / 2.0
    num = 0.0
    den = 0.0
    for w, wt in incident_edges(g, v):
        den += wt
        if int(w) in active:
            num += wt
        else:
            num -= wt
    li = (1.0 + num / den) / 2.0
    gi = len(active) / g.n
    raw = params.gamma * (params.alpha * aff + params.beta * li
                          + (1.0 - params.alpha - params.beta) * gi)
    return min(1.0, max(0.0, raw))


def eligible_nodes(g, active: frozenset, require_contact: bool):
    out = []
    for v in range(g.n):
        if v in active:
            continue
        if require_contact and not any(w in active for w, _ in incident_edges(g, v)):
            continue
        out.append(v)
    return out


def enumerate_spread_distribution(g, c_vec, seeds, params) -> dict:
    """Exact distribution of the final spread via outcome-tree enumeration.

    Walks every Bernoulli outcome sequence of the synchronous process,
    applying the same cooling-period and step-cap termination rules as the
    simulator. Exponential in graph size; only for tiny fixtures.
    """
    max_steps = params.resolve_max_steps(g.n)
    dist = defaultdict(float)

    def recurse(active: frozenset, stable: int, steps: int, prob: float):
        if stable >= params.epsilon or steps >= max_steps:
            dist[len(active)] += prob
            return
        elig = eligible_nodes(g, active, params.require_contact)
        if not elig:
            recurse(active, stable + 1, steps + 1, prob)
            return
        probs = [naive_activation_prob(g, active, v, c_vec, params) for v in elig]
        for outcome in itertools.product([0, 1], repeat=len(elig)):
            p_branch = prob
            for flag, p_v in zip(outcome, probs):
                p_branch *= p_v if flag else (1.0 - p_v)
            if p_branch == 0.0:
                continue
            newly = [v for flag, v in zip(outcome, elig) if flag]
            nxt = active | frozenset(newly)
            recurse(nxt, 0 if newly else stable + 1, steps + 1, p_branch)

    recurse(frozenset(int(s) for s in seeds), 0, 0, 1.0)
    return dict(dist)


def total_variation(dist_a: dict, dist_b: dict) -> float:
    keys = set(dist_a) | set(dist_b)
    return 0.5 * sum(abs(dist_a.get(k, 0.0) - dist_b.get(k, 0.0)) for k in keys)


def empirical_spread_distribution(spreads) -> dict:
    spreads = np.asarray(spreads)
    vals, counts = np.unique(spreads, return_counts=True)
    return {int(v): c / len(spreads) for v, c in zip(vals, counts)}


def pa_edges_cumsum(n: int, r: int, rng_seed: int) -> np.ndarray:
    """PA growth by a fresh cumsum over all degrees for every draw, O(n^2).

    Same urn, same draws and the same ``min(t, v - 1)`` guard as
    ``generate_pa``; returns the edges sorted as in ``RawGraph.edges``.
    """
    rng = np.random.default_rng(int(rng_seed))
    edges = [(i, j) for i in range(r + 1) for j in range(i + 1, r + 1)]
    degree = np.zeros(n, dtype=np.float64)
    degree[: r + 1] = r
    for v in range(r + 1, n):
        weights = degree[:v].copy()
        targets = []
        for _ in range(r):
            total = weights.sum()
            cum = np.cumsum(weights)
            u = rng.random() * total
            t = int(np.searchsorted(cum, u, side="right"))
            t = min(t, v - 1)
            targets.append(t)
            weights[t] = 0.0
        for t in targets:
            edges.append((t, v))
            degree[t] += 1
        degree[v] = r
    edges = np.sort(np.asarray(edges, dtype=np.int64), axis=1)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def diameter_all_sources(n: int, edges) -> int:
    """Largest BFS distance over every source, plain python; None if disconnected."""
    nbrs = [[] for _ in range(n)]
    for a, b in edges:
        nbrs[int(a)].append(int(b))
        nbrs[int(b)].append(int(a))
    best = 0
    for s in range(n):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in nbrs[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        if len(dist) < n:
            return None
        best = max(best, max(dist.values()))
    return best


def candidate_pool(g, v: int, K: int, top_deg: int, core_targets=None):
    """The optimizer's candidate pool by plain-python BFS walks over the CSR.

    Returns the sorted pooled nodes and one (node, kind, vector) triple per
    candidate: the node's own feature, then its normalized neighborhood sum.
    BFS parents are first discoverers, scanning each row in ascending order;
    a core node's distance is its depth in that tree.
    """
    v = int(v)
    parent = {v: None}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in g.raw.neighbors(u):
            w = int(w)
            if w not in parent:
                parent[w] = u
                queue.append(w)

    pool = {v}
    frontier = [v]
    for _ in range(K):
        nxt = []
        for u in frontier:
            for w in g.raw.neighbors(u):
                w = int(w)
                if w not in pool:
                    pool.add(w)
                    nxt.append(w)
        frontier = nxt

    if top_deg > 0:
        deg = g.raw.degree
        pool.update(sorted(parent, key=lambda u: (-deg[u], u))[:top_deg])

    def depth(u):
        d = 0
        while parent[u] is not None:
            u = parent[u]
            d += 1
        return d

    core_nodes = [u for u in range(g.n) if g.segments[u] == "core" and u in parent]
    if core_targets is not None:
        core_nodes = sorted(core_nodes, key=lambda u: (depth(u), u))[:core_targets]
    for target in core_nodes:
        u = target
        while u is not None:
            pool.add(u)
            u = parent[u]

    rows = g.features.rows
    candidates = []
    for node in sorted(pool):
        own = rows[node].copy()
        summed = rows[node] + rows[g.raw.neighbors(node)].sum(axis=0)
        norm = float(np.linalg.norm(summed))
        candidates.append((node, "own", own))
        candidates.append((node, "neighborhood", own if norm < 1e-12 else summed / norm))
    return tuple(sorted(pool)), candidates


def apply_drift(g, c, lam, new_nodes, active, degree, features, weights, wsum):
    """Drift one run's new nodes node by node, in ascending order, on its
    own live arrays: each node's feature moves toward ``c``, its incident
    weights are refreshed from the features as they stand at that moment
    (earlier new nodes already drifted), and the degree and active-mass
    tallies take one add per changed weight in that order.
    """
    from contagion.updyn import drift_update

    indptr, indices = g.raw.indptr, g.raw.indices
    for v in sorted(int(x) for x in new_nodes):
        new_x = drift_update(features[v], c, lam)
        features[v] = new_x
        row = slice(indptr[v], indptr[v + 1])
        nbrs = indices[row]
        new_w = np.clip((1.0 + features[nbrs] @ new_x) / 2.0, 0.0, 1.0)
        delta = new_w - weights[row]
        weights[row] = new_w
        weights[g.rev[row]] = new_w
        degree[v] += float(delta.sum())
        degree[nbrs] += delta
        wsum[nbrs] += delta
        for d in delta[active[nbrs]]:
            wsum[v] += d


class DriftReference:
    """One run's live arrays, advanced by ``apply_drift`` from the nodes each
    step activated (read off the run being checked)."""

    def __init__(self, g, c, lam, seeds):
        self.g, self.c, self.lam = g, c, lam
        self.active = np.zeros(g.n, dtype=bool)
        self.activation_time = np.full(g.n, -1, dtype=np.int64)
        self.live_degree = g.weighted_degree.copy()
        self.live_features = g.features.rows.copy()
        self.live_weights = g.weights.data.copy()
        self.active_wsum = np.zeros(g.n)
        self._activate([int(s) for s in seeds], 0)

    def _activate(self, nodes, t):
        indptr, indices = self.g.raw.indptr, self.g.raw.indices
        self.active[nodes] = True
        self.activation_time[nodes] = t
        for v in nodes:
            row = slice(indptr[v], indptr[v + 1])
            self.active_wsum[indices[row]] += self.live_weights[row]

    def advance(self, new_nodes, t):
        self._activate([int(v) for v in new_nodes], t)
        apply_drift(self.g, self.c, self.lam, new_nodes, self.active, self.live_degree,
                    self.live_features, self.live_weights, self.active_wsum)

    def matches(self, activation_time, live_degree, live_features, live_weights, active_wsum):
        """Whether the given live arrays equal this run's, bit for bit."""
        mine = (self.activation_time, self.live_degree, self.live_features, self.live_weights,
                self.active_wsum)
        theirs = (activation_time, live_degree, live_features, live_weights, active_wsum)
        return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                   for a, b in zip(mine, theirs))


def reference_cascade(g, c, seeds, params, rng_seed):
    """One cascade stepped alone on node arrays of its own: the reference
    the lockstep engine must match bit for bit.

    ``c`` is a ``Propagation``. Returns (activation_time, new_per_step,
    final_spread, converged_at, hit_cap, draws), where draws counts the
    Bernoulli draws made (the eligible-set sizes summed over steps).
    """
    from contagion.updyn import TIE_EPS

    n, indptr, indices = g.n, g.raw.indptr, g.raw.indices
    c_vec = c.vec
    active = np.zeros(n, dtype=bool)
    activation_time = np.full(n, -1, dtype=np.int64)
    nbr_count = np.zeros(n, dtype=np.int64)
    wsum = np.zeros(n)
    degree, features, weights = g.weighted_degree, g.features.rows, g.weights.data
    affinity_hat = np.clip((1.0 + g.features.rows @ c_vec) / 2.0, 0.0, 1.0)
    owned = False

    def activate(nodes, t):
        active[nodes] = True
        activation_time[nodes] = t
        pos = np.concatenate([np.arange(indptr[v], indptr[v + 1]) for v in nodes])
        np.add.at(nbr_count, indices[pos], 1)
        np.add.at(wsum, indices[pos], weights[pos])

    seeds = [int(s) for s in seeds]
    activate(seeds, 0)
    count, step, stable, draws = len(seeds), 0, 0, 0
    new_per_step = [len(seeds)]
    rng = np.random.default_rng(int(rng_seed))
    max_steps = params.resolve_max_steps(n)
    while stable < params.epsilon and step < max_steps:
        step += 1
        if params.require_contact:
            eligible = (~active & (nbr_count > 0)).nonzero()[0]
        else:
            eligible = (~active).nonzero()[0]
        if len(eligible) == 0:
            stable += 1
            new_per_step.append(0)
            continue
        draws += len(eligible)
        deg = degree[eligible]
        li = np.divide(wsum[eligible], deg, out=np.zeros(len(eligible)), where=deg > TIE_EPS)
        probs = params.gamma * (params.alpha * affinity_hat[eligible] + params.beta * li
                                + params.global_weight * (count / n))
        if params.gamma > 1.0:
            np.clip(probs, 0.0, 1.0, out=probs)
        new_nodes = eligible[rng.random(len(eligible)) < probs]
        if len(new_nodes):
            activate(new_nodes, step)
            count += len(new_nodes)
            if params.drift > 0.0:
                if not owned:
                    degree, features, weights = degree.copy(), features.copy(), weights.copy()
                    owned = True
                apply_drift(g, c, params.drift, new_nodes, active, degree, features, weights,
                            wsum)
        stable = 0 if len(new_nodes) else stable + 1
        new_per_step.append(len(new_nodes))
    return (activation_time, np.array(new_per_step, dtype=np.int64), count, step,
            stable < params.epsilon, draws)
