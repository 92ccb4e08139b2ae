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


def reference_cascade(g, c, seeds, params, rng_seed):
    """One cascade stepped alone on node arrays of its own: the reference
    the lockstep engine must match bit for bit.

    ``c`` is a ``Propagation``. Returns (activation_time, new_per_step,
    final_spread, converged_at, hit_cap, draws), where draws counts the
    Bernoulli draws made (the eligible-set sizes summed over steps).
    """
    from contagion.updyn import TIE_EPS, drift_update

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
                for v in sorted(int(x) for x in new_nodes):
                    new_x = drift_update(features[v], c, params.drift)
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
        stable = 0 if len(new_nodes) else stable + 1
        new_per_step.append(len(new_nodes))
    return (activation_time, np.array(new_per_step, dtype=np.int64), count, step,
            stable < params.epsilon, draws)
