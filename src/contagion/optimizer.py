"""Search for a propagation vector that maximizes expected spread from a seed.

Three layers, cheapest first: a feature-informed candidate pool (seed
neighborhood, hubs, paths to the core), Monte Carlo ranking under common
random numbers, and beam-search refinement with isotropic perturbations on
the unit sphere. A coarse dynamic program over a small vector codebook and
structural frontier states gives a policy-level recommendation.

Common random numbers are load-bearing: simulation i uses the seed
derive_seed(rng_seed, "sim", i) for every candidate, so estimates are paired
and re-scoring a vector reproduces its score exactly.
"""

from __future__ import annotations

import logging
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .netgen import CORE, WeightedGraph
from .rng import derive_seed
from .updyn import (Propagation, SimParams, _activate_rows, _draw, _eligible, _fresh_rows,
                    run_cascades)

logger = logging.getLogger(__name__)

OWN = "own"
NEIGHBORHOOD = "neighborhood"


@dataclass(frozen=True)
class Candidate:
    node: int
    kind: str  # own feature or normalized neighborhood sum
    vec: np.ndarray


@dataclass(frozen=True)
class CandidatePool:
    nodes: tuple
    candidates: tuple  # Candidate entries, two per node

    def __len__(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class BeamConfig:
    width: int = 5  # B
    rounds: int = 5  # T
    eps_perturb: float = 0.1
    sims: int = 200  # M per evaluation
    spawn: int = 8  # perturbed children per beam slot per round

    def __post_init__(self):
        if self.width < 1:
            raise InvalidParameter("beam", "beam width must be >= 1")
        if self.rounds < 0:
            raise InvalidParameter("rounds", "rounds must be >= 0")
        if self.eps_perturb < 0:
            raise InvalidParameter("perturb", "perturbation scale must be >= 0")
        if self.sims < 1:
            raise InvalidParameter("sims", "simulations per evaluation must be >= 1")


@dataclass(frozen=True)
class SpreadEstimate:
    mean: float
    stderr: float
    sims: int


@dataclass(frozen=True)
class BeamResult:
    best_vec: np.ndarray
    best_score: float
    best_stderr: float
    round_best: tuple  # best score after round 0, 1, ..., T
    evaluations: int


def _hop_set(g: WeightedGraph, v: int, max_hops: int) -> set:
    seen = {v}
    frontier = [v]
    for _ in range(max_hops):
        nxt = []
        for u in frontier:
            for w in g.raw.neighbors(u):
                w = int(w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def _bfs_parents(g: WeightedGraph, v: int):
    parent = {v: None}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in g.raw.neighbors(u):
            w = int(w)
            if w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


def build_candidate_pool(g: WeightedGraph, v: int, K: int, top_deg: int,
                         core_targets: int | None = None) -> CandidatePool:
    """Candidate nodes and their propagation vectors.

    Pool = {seed} plus nodes within K hops, the top_deg highest-degree nodes
    reachable from the seed, and the nodes on one BFS shortest path from the
    seed to each core node (limited to the ``core_targets`` nearest core
    nodes when given). Each pooled node contributes its own unit feature and
    the normalized sum of its neighborhood's features.
    """
    if v < 0 or v >= g.n:
        raise InvalidParameter("seed-node", f"node {v} outside [0, {g.n})")
    if K < 0:
        raise InvalidParameter("khop", "hop count must be >= 0")

    parent = _bfs_parents(g, int(v))
    reachable = set(parent)
    pool = {int(v)}
    pool |= _hop_set(g, int(v), K)

    if top_deg > 0:
        deg = g.raw.degree
        order = sorted(reachable, key=lambda u: (-deg[u], u))
        pool.update(order[:top_deg])

    core_nodes = [u for u in range(g.n) if g.segments[u] == CORE and u in reachable]
    if core_targets is not None:
        # nearest first: walk up the BFS tree to measure depth
        def depth(u):
            d = 0
            while parent[u] is not None:
                u = parent[u]
                d += 1
            return d

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
        candidates.append(Candidate(node=node, kind=OWN, vec=own))
        summed = rows[node] + rows[g.raw.neighbors(node)].sum(axis=0)
        norm = float(np.linalg.norm(summed))
        if norm < 1e-12:
            hood = own
        else:
            hood = summed / norm
        candidates.append(Candidate(node=node, kind=NEIGHBORHOOD, vec=hood))
    return CandidatePool(nodes=tuple(sorted(pool)), candidates=tuple(candidates))


def estimate_spread(g: WeightedGraph, c, v: int, M: int, params: SimParams,
                    rng_seed: int) -> SpreadEstimate:
    """Monte Carlo mean spread with common-random-number pairing.

    Simulation i always runs under derive_seed(rng_seed, "sim", i), so calls
    with different vectors but the same rng_seed are paired sample-by-sample.
    """
    if M < 1:
        raise InvalidParameter("sims", "need at least one simulation")
    records = run_cascades(g, [(c, [v], derive_seed(rng_seed, "sim", i)) for i in range(M)],
                           params)
    spreads = np.array([rec.final_spread for rec in records], dtype=np.float64)
    stderr = float(spreads.std(ddof=1) / np.sqrt(M)) if M > 1 else 0.0
    return SpreadEstimate(mean=float(spreads.mean()), stderr=stderr, sims=M)


def beam_search(g: WeightedGraph, v: int, pool: CandidatePool, cfg: BeamConfig,
                params: SimParams, rng_seed: int) -> BeamResult:
    """Rank the pool, then refine the beam with renormalized perturbations.

    Incumbents re-enter the beam each round, so under common random numbers
    the best score never decreases across rounds.
    """
    if len(pool) == 0:
        raise InvalidParameter("pool", "candidate pool is empty")

    cache = {}
    evaluations = 0

    def score(vec: np.ndarray) -> SpreadEstimate:
        nonlocal evaluations
        key = vec.tobytes()
        if key not in cache:
            cache[key] = estimate_spread(g, vec_to_prop(vec), v, cfg.sims, params, rng_seed)
            evaluations += 1
        return cache[key]

    def vec_to_prop(vec):
        return Propagation.from_vector(vec)

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
                if cfg.eps_perturb == 0.0:
                    child = vec
                else:
                    mixed = vec + cfg.eps_perturb * noise
                    norm = float(np.linalg.norm(mixed))
                    if norm < 1e-12:
                        child = vec
                    else:
                        child = mixed / norm
                children.append((score(child), next_index, child))
                next_index += 1
        merged = beam + children
        merged.sort(key=lambda item: (-item[0].mean, item[1]))
        beam = merged[: cfg.width]
        round_best.append(beam[0][0].mean)

    best_est, _, best_vec = beam[0]
    return BeamResult(
        best_vec=best_vec.copy(),
        best_score=best_est.mean,
        best_stderr=best_est.stderr,
        round_best=tuple(round_best),
        evaluations=evaluations,
    )


SEGMENT_ORDER = (CORE, "intermediate", "periphery")


@dataclass(frozen=True)
class DpConfig:
    codebook: tuple  # R unit vectors
    horizon: int = 3
    sims_per_estimate: int = 10

    def __post_init__(self):
        if len(self.codebook) < 1:
            raise InvalidParameter("codebook", "need at least one vector")
        for vec in self.codebook:
            if abs(float(np.linalg.norm(vec)) - 1.0) > 1e-9:
                raise InvalidParameter("codebook", "codebook vectors must be unit norm")
        if self.horizon < 0:
            raise InvalidParameter("horizon", "horizon must be >= 0")
        if self.sims_per_estimate < 1:
            raise InvalidParameter("sims", "need at least one simulation per estimate")


@dataclass(frozen=True)
class DpResult:
    values: np.ndarray  # (horizon, R, 3) value table, empty when horizon = 0
    recommendation: int  # codebook index
    immediate_reward: np.ndarray  # (R, 3) mean one-step gains
    transitions: np.ndarray  # (R, 3, R, 3) estimated P(s' | s, r, r')
    observed: np.ndarray  # (R, 3) bool, False entries were never sampled


def default_codebook(g: WeightedGraph, v: int, rng_seed: int) -> tuple:
    """Seed's own feature plus one random node feature per structural segment."""
    rng = np.random.default_rng(derive_seed(rng_seed, "codebook"))
    vecs = [g.features.rows[int(v)].copy()]
    for segment in SEGMENT_ORDER:
        members = np.flatnonzero(g.segments == segment)
        pick = int(members[rng.integers(len(members))])
        vecs.append(g.features.rows[pick].copy())
    return tuple(vecs)


def _majority_segment(g: WeightedGraph, nodes) -> int:
    counts = defaultdict(int)
    for u in nodes:
        counts[str(g.segments[int(u)])] += 1
    best = max(SEGMENT_ORDER, key=lambda s: (counts.get(s, 0), -SEGMENT_ORDER.index(s)))
    return SEGMENT_ORDER.index(best)


def _probe_one_step(g, nodes, times, props, params, seeds):
    """Draw one step from a visited state under each propagation, row r' of
    one lockstep state under ``seeds[r']``; returns each row's gain and the
    majority segment of its new nodes (None when it gains none).

    A stable time sort replays the history in its listed order within a
    step, so the sums match a step-by-step replay.
    """
    R, order = len(props), np.argsort(times, kind="stable")
    rows = _fresh_rows(g, props, own_live=False)
    _activate_rows(rows, g, np.arange(R).repeat(len(nodes)), np.tile(nodes[order], R),
                   np.tile(times[order], R))
    rngs = [np.random.default_rng(s) for s in seeds]
    _, node, new = _draw(rows, params, rngs, *_eligible(rows, params))
    # the fired cells come row after row
    parts = np.split(node, np.cumsum(new)[:-1])
    return [(k, _majority_segment(g, part) if k else None) for k, part in zip(new, parts)]


def dp_policy(g: WeightedGraph, v: int, cfg: DpConfig, params: SimParams,
              rng_seed: int) -> DpResult:
    """Coarse Bellman recursion over (codebook entry, frontier segment).

    Rewards and transitions are estimated by simulation: cascades run under
    each codebook entry r, and at every visited state a one-step probe under
    each r' measures the spread gain and where the frontier moves. Pairs
    (r, s) that are never visited keep value zero and are flagged.

    A probe rebuilds the visited state from activation times alone, so under
    drift it sees the graph's undrifted features and weights.
    """
    R = len(cfg.codebook)
    n_seg = len(SEGMENT_ORDER)
    gain_sum = np.zeros((R, n_seg, R))
    gain_cnt = np.zeros((R, n_seg, R), dtype=np.int64)
    trans_cnt = np.zeros((R, n_seg, R, n_seg), dtype=np.int64)

    props = [Propagation.from_vector(np.asarray(vec, dtype=np.float64)) for vec in cfg.codebook]
    for r, prop in enumerate(props):
        records = run_cascades(g, [(prop, [int(v)], derive_seed(rng_seed, "dp", r, sim))
                                   for sim in range(cfg.sims_per_estimate)], params)
        for sim, rec in enumerate(records):
            # replay the trajectory, probing each visited state
            active_nodes = np.flatnonzero(rec.activation_time >= 0)
            times = rec.activation_time[active_nodes]
            horizon_steps = sorted(set(int(t) for t in times))
            for t in horizon_steps[: cfg.horizon + 1]:
                frontier = active_nodes[times == t]
                s = _majority_segment(g, frontier)
                probes = _probe_one_step(
                    g, active_nodes[times <= t], times[times <= t], props, params,
                    [derive_seed(rng_seed, "probe", r, sim, t, rp) for rp in range(R)],
                )
                for rp, (gained, s_next) in enumerate(probes):
                    gain_sum[r, s, rp] += gained
                    gain_cnt[r, s, rp] += 1
                    if s_next is not None:
                        trans_cnt[r, s, rp, s_next] += 1

    observed = gain_cnt[:, :, 0] > 0
    with np.errstate(invalid="ignore"):
        reward = np.where(gain_cnt > 0, gain_sum / np.maximum(gain_cnt, 1), 0.0)
    trans = np.zeros((R, n_seg, R, n_seg))
    for r in range(R):
        for s in range(n_seg):
            for rp in range(R):
                total = trans_cnt[r, s, rp].sum()
                if total > 0:
                    trans[r, s, rp] = trans_cnt[r, s, rp] / total

    if not observed.all():
        logger.warning("dp_policy: %d unreached (codebook, segment) pairs valued 0",
                       int((~observed).sum()))

    immediate = np.array([[reward[r, s, r] for s in range(n_seg)] for r in range(R)])
    seed_seg = SEGMENT_ORDER.index(str(g.segments[int(v)]))

    if cfg.horizon == 0:
        values = np.zeros((0, R, n_seg))
        recommendation = int(np.argmax(immediate[:, seed_seg]))
        return DpResult(values=values, recommendation=recommendation,
                        immediate_reward=immediate, transitions=trans, observed=observed)

    values = np.zeros((cfg.horizon, R, n_seg))
    v_next = np.zeros((R, n_seg))
    for t in range(cfg.horizon - 1, -1, -1):
        v_cur = np.zeros((R, n_seg))
        for r in range(R):
            for s in range(n_seg):
                best = 0.0
                for rp in range(R):
                    cont = float((trans[r, s, rp] * v_next[rp]).sum())
                    best = max(best, reward[r, s, rp] + cont)
                v_cur[r, s] = best if observed[r, s] else 0.0
        values[t] = v_cur
        v_next = v_cur

    recommendation = int(np.argmax(values[0, :, seed_seg]))
    return DpResult(values=values, recommendation=recommendation,
                    immediate_reward=immediate, transitions=trans, observed=observed)
