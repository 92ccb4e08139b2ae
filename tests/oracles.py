"""Independent brute-force oracles used by the test suite.

Everything here recomputes model quantities from first principles (explicit
sums over neighbors, full enumeration of Bernoulli outcome trees) without
touching the vectorized simulation path it is checking.
"""

import itertools
from collections import defaultdict

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
