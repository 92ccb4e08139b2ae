"""Independent brute-force oracles used by the test suite.

Everything here recomputes model quantities from first principles (explicit
sums over neighbors, full enumeration of Bernoulli outcome trees) without
touching the vectorized simulation path it is checking.
"""

import itertools
import json
import math
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


def save_graph_reference(g, path) -> None:
    """The graph JSON encoded element by element through ``json.dump``'s
    pure-Python encoder; ``netgen.save_graph`` must write the same bytes."""
    doc = {
        "n": g.n,
        "r": g.meta.get("r"),
        "seed": g.meta.get("seed"),
        "edges": [[int(a), int(b)] for a, b in g.raw.edges],
        "features": [[float(x) for x in row] for row in g.features.rows],
        "weights": [
            [int(a), int(b), float(w)]
            for (a, b), w in zip(g.raw.edges, g.edge_weights)
        ],
        "segments": [str(s) for s in g.segments],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


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


def reference_ic(g, seeds, p, rng_seed):
    """Independent cascade one frontier node at a time: the reference
    ``baselines.run_ic`` must match bit for bit.

    Frontier nodes go in ascending order, each drawing ``rng.random(k)`` for
    its k neighbours still inactive at that moment. Returns the run's
    ``CascadeRecord``.
    """
    from contagion.baselines import IC, BaselineConfig
    from contagion.updyn import CascadeRecord, check_seeds

    cfg = BaselineConfig(model=IC, ic_p=p)
    seeds = check_seeds(g, seeds)
    rng = np.random.default_rng(int(rng_seed))
    n = g.n
    activation_time = np.full(n, -1, dtype=np.int64)
    activation_time[seeds] = 0
    frontier = sorted(seeds)
    new_per_step = [len(seeds)]
    t = 0
    while frontier:
        t += 1
        newly = []
        for v in frontier:
            nbrs = g.raw.neighbors(v)
            nbrs = nbrs[activation_time[nbrs] < 0]
            if len(nbrs):
                hit = nbrs[rng.random(len(nbrs)) < p]
                activation_time[hit] = t
                newly += hit.tolist()
        frontier = sorted(newly)
        new_per_step.append(len(newly))
    return CascadeRecord(
        params=cfg, seed_set=tuple(seeds), propagation=None, rng_seed=int(rng_seed),
        activation_time=activation_time, new_per_step=np.array(new_per_step, dtype=np.int64),
        final_spread=int(np.sum(activation_time >= 0)), converged_at=t, hit_cap=False,
        model=cfg.model,
    )


# ---------------------------------------------------------------------------
# optimizer: the beam scored one candidate at a time


def beam_search_reference(g, v, pool, cfg, params, rng_seed):
    """``optimizer.beam_search`` as it was before generations were scored
    in one lockstep call: each vector not yet cached is scored on its own,
    by one engine call of ``cfg.sims`` runs, in the order it is asked for.
    """
    from contagion.optimizer import BeamResult, SpreadEstimate
    from contagion.rng import derive_seed
    from contagion.updyn import Propagation, iter_cascades

    cache = {}

    def score(vec):
        key = vec.tobytes()
        if key not in cache:
            M = cfg.sims
            runs = [(Propagation.from_vector(vec), [v], derive_seed(rng_seed, "sim", i))
                    for i in range(M)]
            spreads = np.fromiter((rec.final_spread for rec in iter_cascades(g, runs, params)),
                                  dtype=np.float64, count=M)
            stderr = float(spreads.std(ddof=1) / np.sqrt(M)) if M > 1 else 0.0
            cache[key] = SpreadEstimate(mean=float(spreads.mean()), stderr=stderr, sims=M)
        return cache[key]

    scored = [(score(c.vec), i, c.vec) for i, c in enumerate(pool.candidates)]
    scored.sort(key=lambda item: (-item[0].mean, item[1]))
    beam = scored[: cfg.width]
    round_best = [beam[0][0].mean]
    next_index = len(pool.candidates)
    for t in range(1, cfg.rounds + 1):
        children = []
        for slot, (_, _, vec) in enumerate(beam):
            child_rng = np.random.default_rng(derive_seed(rng_seed, "perturb", t, slot))
            for _ in range(cfg.spawn):
                noise = child_rng.standard_normal(len(vec))
                child = vec
                if cfg.eps_perturb != 0.0:
                    mixed = vec + cfg.eps_perturb * noise
                    norm = float(np.linalg.norm(mixed))
                    if norm >= 1e-12:
                        child = mixed / norm
                children.append((score(child), next_index, child))
                next_index += 1
        merged = beam + children
        merged.sort(key=lambda item: (-item[0].mean, item[1]))
        beam = merged[: cfg.width]
        round_best.append(beam[0][0].mean)
    best_est, _, best_vec = beam[0]
    return BeamResult(best_vec=best_vec.copy(), best_score=best_est.mean,
                      best_stderr=best_est.stderr, round_best=tuple(round_best),
                      evaluations=len(cache))


# ---------------------------------------------------------------------------
# learner: the dict walks the compiled design replaced


def learner_trust_host(pairs) -> dict:
    """The host of (truster, trustee) pairs as a dict of in-neighbor tuples:
    nodes in first appearance, truster before trustee, self-trust skipped;
    each truster lists its trustees once, in first appearance."""
    in_nbrs = defaultdict(list)
    seen = set()
    for truster, trustee in pairs:
        if truster == trustee or (truster, trustee) in seen:
            continue
        seen.add((truster, trustee))
        in_nbrs[truster].append(trustee)
        in_nbrs.setdefault(trustee, in_nbrs[trustee])
    return {k: tuple(v) for k, v in in_nbrs.items()}


def learner_graph_host(g) -> dict:
    """The host of an undirected graph: node v's in-neighbors are its
    neighbors, as Python ints."""
    return {v: tuple(int(w) for w in g.raw.neighbors(v)) for v in range(g.n)}


class DictHost:
    """A host dict read through the learner's graph interface."""

    def __init__(self, in_nbrs: dict):
        self.in_nbrs = in_nbrs

    def nodes(self):
        return self.in_nbrs.keys()

    def in_neighbors(self, v):
        return self.in_nbrs.get(v, ())


def learner_init_params(graph, aggregation, rng_seed):
    """One scalar normal draw per parameter, dst by dst in str order."""
    from contagion.learner import SUM, SUM_BOX, ThresholdModelParams

    rng = np.random.default_rng(int(rng_seed))
    upper = SUM_BOX if aggregation == SUM else float("inf")
    params = ThresholdModelParams(aggregation=aggregation, influence={}, bias={}, upper=upper)
    for dst in sorted(graph.nodes(), key=str):
        for src in graph.in_neighbors(dst):
            params.influence[(src, dst)] = float(rng.normal(0.05, 0.01))
        params.bias[dst] = float(rng.normal(0.05, 0.01))
    params.project()
    return params


def learner_boundary_nodes(trace, graph):
    """Non-members with a member in-neighbor, scanning every host node."""
    members = set(trace.members)
    return [v for v in sorted(graph.nodes(), key=str)
            if v not in members and any(w in members for w in graph.in_neighbors(v))]


def learner_raw_score(v, active, graph, params):
    from contagion.learner import MEAN

    in_nbrs = graph.in_neighbors(v)
    signed = 0.0
    for w in in_nbrs:
        weight = params.influence.get((w, v), 0.0)
        signed += weight if w in active else -weight
    if params.aggregation == MEAN and in_nbrs:
        signed /= len(in_nbrs)
    return signed + params.bias.get(v, 0.0)


def learner_probability(v, active, graph, params):
    z = learner_raw_score(v, set(active), graph, params)
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def learner_nll_and_grad(traces, graph, params, w_boundary="balanced"):
    """Total NLL and gradient dicts, one term at a time; logs the same
    per-trace clamp warnings as the learner."""
    from contagion.learner import MEAN, PROB_FLOOR, logger, resolve_boundary_weight

    grad_i = defaultdict(float)
    grad_b = defaultdict(float)

    def accumulate(v, active, dz):
        in_nbrs = graph.in_neighbors(v)
        scale = 1.0 / len(in_nbrs) if params.aggregation == MEAN and in_nbrs else 1.0
        for w in in_nbrs:
            grad_i[(w, v)] += dz * (1.0 if w in active else -1.0) * scale
        grad_b[v] += dz

    total = 0.0
    for trace in traces:
        boundary = learner_boundary_nodes(trace, graph)
        wb = resolve_boundary_weight(len(trace.members), len(boundary), w_boundary)
        parents = trace.parents()
        members = frozenset(trace.members)
        clamped = 0
        loss = 0.0
        for v in trace.members:
            p = learner_probability(v, parents.get(v, ()), graph, params)
            accumulate(v, frozenset(parents.get(v, ())), p - 1.0)
            if p < PROB_FLOOR:
                p = PROB_FLOOR
                clamped += 1
            loss -= math.log(p)
        for u in boundary:
            p = learner_probability(u, members, graph, params)
            accumulate(u, members, wb * p)
            if p > 1.0 - PROB_FLOOR:
                p = 1.0 - PROB_FLOOR
                clamped += 1
            loss -= wb * math.log(1.0 - p)
        if clamped:
            logger.warning("trace %s: clamped %d saturated probabilities", trace.trace_id, clamped)
        total += loss
    return total, dict(grad_i), dict(grad_b)


def learner_fit(traces, graph, init, steps, lr, w_boundary="balanced", augment=False):
    """Projected gradient descent on ``learner_nll_and_grad`` over param dicts;
    returns (params, losses, lr_history)."""
    from contagion.learner import augment_with_prefixes, logger

    work = augment_with_prefixes(traces) if augment else list(traces)
    params = init.copy()
    losses, lr_history = [], []
    loss, gi, gb = learner_nll_and_grad(work, graph, params, w_boundary)
    losses.append(loss)
    rising = 0
    for it in range(steps):
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite loss at iteration {it}")
        for key, grad in gi.items():
            params.influence[key] = params.influence.get(key, 0.0) - lr * grad
        for key, grad in gb.items():
            params.bias[key] = params.bias.get(key, 0.0) - lr * grad
        params.project()
        lr_history.append(lr)
        new_loss, gi, gb = learner_nll_and_grad(work, graph, params, w_boundary)
        if new_loss > loss:
            rising += 1
            if rising >= 10:
                lr /= 2.0
                rising = 0
                logger.warning("loss rising for 10 iterations; lr halved to %g", lr)
        else:
            rising = 0
        loss = new_loss
        losses.append(loss)
    return params, losses, lr_history


def learner_evaluate(train_traces, test_traces, graph, params):
    """Activation-state accuracy report, one prediction at a time."""
    report = {}
    for name, traces in (("train", train_traces), ("test", test_traces)):
        member_hits, boundary_hits = [], []
        for trace in traces:
            parents = trace.parents()
            for v in trace.members:
                if parents.get(v):
                    member_hits.append(learner_probability(v, parents[v], graph, params) > 0.5)
            for u in learner_boundary_nodes(trace, graph):
                boundary_hits.append(learner_probability(u, trace.members, graph, params) <= 0.5)
        report[name] = {
            "active_nonseeds": float(np.mean(member_hits)) if member_hits else None,
            "boundary": float(np.mean(boundary_hits)) if boundary_hits else None,
            "n_active_nonseeds": len(member_hits),
            "n_boundary": len(boundary_hits),
        }
    return report


def _edge_rule(times):
    """The influence edge order: (time of dst, str(dst), str(src))."""
    return lambda e: (times[e[1]], str(e[1]), str(e[0]))


def learner_reconstruct_traces(trust_edges, ratings):
    """``reconstruct_traces`` as a loop over every rating and trust relation."""
    from contagion.learner import CascadeTrace

    trusts = defaultdict(set)  # user -> set of users they trust
    for truster, trustee in trust_edges:
        if truster != trustee:
            trusts[truster].add(trustee)

    first_time = {}
    for user, product, time in ratings:
        key = (user, product)
        t = int(time)
        if key not in first_time or t < first_time[key]:
            first_time[key] = t

    by_product = defaultdict(list)
    for (user, product), t in first_time.items():
        by_product[product].append((t, user))

    traces = []
    for product in sorted(by_product, key=str):
        events = sorted(by_product[product], key=lambda e: (e[0], str(e[1])))
        if len(events) < 2:
            continue
        members = tuple(user for _, user in events)
        times = {user: t for t, user in events}
        edges = []
        for u in members:
            for v in trusts.get(u, ()):
                if v in times and times[v] < times[u]:
                    edges.append((v, u))
        traces.append(CascadeTrace(trace_id=str(product), members=members,
                                   edges=tuple(sorted(edges, key=_edge_rule(times)))))
    return traces


def learner_traces_from_records(records, g, id_prefix="run"):
    """``traces_from_records`` as a loop over every activated node's neighbors."""
    from contagion.learner import CascadeTrace

    traces = []
    for idx, rec in enumerate(records):
        order = [(int(t), int(v)) for v, t in enumerate(rec.activation_time) if t >= 0]
        if len(order) < 2:
            continue
        order.sort()
        members = tuple(v for _, v in order)
        times = {v: t for t, v in order}
        edges = []
        for v in members:
            for w in g.raw.neighbors(v):
                w = int(w)
                if w in times and times[w] < times[v]:
                    edges.append((w, v))
        traces.append(CascadeTrace(trace_id=f"{id_prefix}{idx}", members=members,
                                   edges=tuple(sorted(edges, key=_edge_rule(times)))))
    return traces


def rq5_grid_per_cosine(cfg, g, tally):
    """RQ5's grid rows with one ``run_batch`` call per cosine: the sweep as
    it was before its grid values ran as one batch."""
    from contagion.experiments import misaligned_vector, run_batch, select_nodes
    from contagion.rng import derive_seed
    from contagion.updyn import Propagation

    rows = []
    for value in cfg.sweep_values:
        runs, dot_errs = [], []
        for node in select_nodes(cfg, g):
            node = int(node)
            x = g.features.rows[node]
            for i in range(cfg.runs_per_node):
                dir_rng = np.random.default_rng(derive_seed(cfg.master_seed, "rq5-dir", node, i))
                vec = misaligned_vector(x, float(value), dir_rng)
                dot_errs.append(abs(float(vec @ x) - float(value)))
                runs.append((Propagation(vec=vec), [node],
                             derive_seed(cfg.master_seed, "rq5", node, i)))
        summaries = run_batch(g, runs, cfg.params, 1, tally=tally)
        ttvs = [s.time_to_virality for s in summaries if s.time_to_virality is not None]
        rows.append({
            "cosine": float(value),
            "n_runs": len(summaries),
            "n_viral": sum(s.viral for s in summaries),
            "virality_frequency": float(np.mean([s.viral for s in summaries])),
            "mean_time_to_virality": float(np.mean(ttvs)) if ttvs else None,
            "max_cosine_error": float(np.max(dot_errs)),
        })
    return rows
