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
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from .errors import InvalidParameter
from .netgen import CORE, WeightedGraph
from .rng import derive_seed
from .updyn import Propagation, SimParams, iter_cascades

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
        if not 0.0 <= self.eps_perturb < np.inf:
            raise InvalidParameter(
                "perturb", f"perturbation scale must be finite and >= 0, got {self.eps_perturb}")
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


def build_candidate_pool(g: WeightedGraph, v: int, K: int, top_deg: int,
                         core_targets: int | None = None) -> CandidatePool:
    """Candidate nodes and their propagation vectors.

    Pool = {seed} plus nodes within K hops, the top_deg highest-degree nodes
    reachable from the seed, and the nodes on one BFS shortest path from the
    seed to each core node (limited to the ``core_targets`` nearest core
    nodes when given). Each pooled node contributes its own unit feature and
    the normalized sum of its neighborhood's features.

    The paths run up a BFS tree whose parent for each node is its first
    discoverer, every CSR row scanned in ascending order; nearest means
    fewest hops, ties by id.
    """
    if v < 0 or v >= g.n:
        raise InvalidParameter("seed-node", f"node {v} outside [0, {g.n})")
    if K < 0:
        raise InvalidParameter("khop", "hop count must be >= 0")
    if top_deg < 0:
        raise InvalidParameter("top-deg", "hub count must be >= 0")
    if core_targets is not None and core_targets < 0:
        raise InvalidParameter("core-targets", "core target count must be >= 0")

    adj = g.raw.adjacency()
    # dijkstra's predecessors break distance ties by heap order, not scan order
    _, parent = breadth_first_order(adj, int(v), directed=True, return_predecessors=True)
    hops = dijkstra(adj, indices=int(v), unweighted=True)
    reachable = np.flatnonzero(np.isfinite(hops))
    pool = hops <= K

    if top_deg > 0:
        deg = g.raw.degree[reachable]
        pool[reachable[np.lexsort((reachable, -deg))[:top_deg]]] = True

    core_nodes = reachable[g.segments[reachable] == CORE]
    if core_targets is not None:
        core_nodes = core_nodes[np.lexsort((core_nodes, hops[core_nodes]))[:core_targets]]
    while len(core_nodes):
        # one BFS level of every path per pass; the seed's parent is negative
        pool[core_nodes] = True
        core_nodes = parent[core_nodes]
        core_nodes = core_nodes[core_nodes >= 0]

    nodes = np.flatnonzero(pool).tolist()
    rows = g.features.rows
    candidates = []
    for node in nodes:
        own = rows[node].copy()
        candidates.append(Candidate(node=node, kind=OWN, vec=own))
        summed = rows[node] + rows[g.raw.neighbors(node)].sum(axis=0)
        norm = float(np.linalg.norm(summed))
        if norm < 1e-12:
            hood = own
        else:
            hood = summed / norm
        candidates.append(Candidate(node=node, kind=NEIGHBORHOOD, vec=hood))
    return CandidatePool(nodes=tuple(nodes), candidates=tuple(candidates))


def estimate_spread(g: WeightedGraph, c, v: int, M: int, params: SimParams,
                    rng_seed: int) -> SpreadEstimate:
    """Monte Carlo mean spread with common-random-number pairing.

    Simulation i always runs under derive_seed(rng_seed, "sim", i), so calls
    with different vectors but the same rng_seed are paired sample-by-sample.
    """
    return estimate_spreads(g, [c], v, M, params, rng_seed)[0]


def estimate_spreads(g: WeightedGraph, props, v: int, M: int, params: SimParams,
                     rng_seed: int) -> list:
    """``estimate_spread`` of each propagation in ``props``, as one lockstep
    call over candidate-major runs (all M simulations of the first, then
    of the next), so each estimate equals its own call's bit for bit."""
    if M < 1:
        raise InvalidParameter("sims", "need at least one simulation")
    seed_set = [v]
    sim_seeds = [derive_seed(rng_seed, "sim", i) for i in range(M)]
    runs = [(c, seed_set, sim_seed) for c in props for sim_seed in sim_seeds]
    spreads = np.fromiter((rec.final_spread for rec in iter_cascades(g, runs, params)),
                          dtype=np.float64, count=len(runs)).reshape(len(props), M)
    estimates = []
    for row in spreads:
        stderr = float(row.std(ddof=1) / np.sqrt(M)) if M > 1 else 0.0
        estimates.append(SpreadEstimate(mean=float(row.mean()), stderr=stderr, sims=M))
    return estimates


def beam_search(g: WeightedGraph, v: int, pool: CandidatePool, cfg: BeamConfig,
                params: SimParams, rng_seed: int) -> BeamResult:
    """Rank the pool, then refine the beam with renormalized perturbations.

    Incumbents re-enter the beam each round, so under common random numbers
    the best score never decreases across rounds. A generation (the pool,
    then each round's children) is scored in one ``estimate_spreads`` call
    over the vectors not scored before.
    """
    if len(pool) == 0:
        raise InvalidParameter("pool", "candidate pool is empty")

    cache = {}

    def score(vecs) -> list:
        fresh = {}
        for vec in vecs:
            key = vec.tobytes()
            if key not in cache:
                fresh.setdefault(key, vec)
        props = [Propagation.from_vector(vec) for vec in fresh.values()]
        cache.update(zip(fresh, estimate_spreads(g, props, v, cfg.sims, params, rng_seed)))
        return [(cache[vec.tobytes()], vec) for vec in vecs]

    scored = [(est, i, vec) for i, (est, vec) in enumerate(score([c.vec for c in pool.candidates]))]
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
                    with np.errstate(over="ignore"):
                        mixed = vec + cfg.eps_perturb * noise
                        norm = float(np.linalg.norm(mixed))
                    if not np.isfinite(norm):
                        raise InvalidParameter(
                            "perturb", f"perturbation scale {cfg.eps_perturb} overflows a child")
                    if norm < 1e-12:
                        child = vec
                    else:
                        child = mixed / norm
                children.append(child)
        merged = beam + [(est, next_index + j, child)
                         for j, (est, child) in enumerate(score(children))]
        next_index += len(children)
        merged.sort(key=lambda item: (-item[0].mean, item[1]))
        beam = merged[: cfg.width]
        round_best.append(beam[0][0].mean)

    best_est, _, best_vec = beam[0]
    return BeamResult(
        best_vec=best_vec.copy(),
        best_score=best_est.mean,
        best_stderr=best_est.stderr,
        round_best=tuple(round_best),
        evaluations=len(cache),
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
    # argmax keeps the first maximum, so ties go to the earlier segment
    segments = g.segments[nodes]
    return int(np.argmax([np.count_nonzero(segments == s) for s in SEGMENT_ORDER]))


def dp_policy(g: WeightedGraph, v: int, cfg: DpConfig, params: SimParams,
              rng_seed: int) -> DpResult:
    """Coarse Bellman recursion over (codebook entry, frontier segment).

    Rewards and transitions are estimated by simulation: cascades run under
    each codebook entry r, and at every visited state a probe under each r'
    measures the spread gain and where the frontier moves. Pairs (r, s) that
    are never visited keep value zero and are flagged.

    A probe is a one-step cascade seeded with the visited state's history in
    (activation time, node id) order, which adds to each neighbour's sums in
    the order the cascade did. Rebuilt from activation times alone, the
    state under drift has the graph's undrifted features and weights.
    """
    R, sims = len(cfg.codebook), cfg.sims_per_estimate
    n_seg = len(SEGMENT_ORDER)
    gain_sum = np.zeros((R, n_seg, R))
    gain_cnt = np.zeros((R, n_seg, R), dtype=np.int64)
    trans_cnt = np.zeros((R, n_seg, R, n_seg), dtype=np.int64)

    props = [Propagation.from_vector(np.asarray(vec, dtype=np.float64)) for vec in cfg.codebook]
    cascades = iter_cascades(g, [(prop, [int(v)], derive_seed(rng_seed, "dp", r, sim))
                                 for r, prop in enumerate(props) for sim in range(sims)], params)
    probes, visits = [], []  # R probes per visited state, and its (r, s)
    for i, rec in enumerate(cascades):
        r, sim = divmod(i, sims)
        # the active nodes in (activation time, node id) order
        at = rec.activation_time
        history = np.argsort(at, kind="stable")[np.count_nonzero(at < 0):]
        steps, starts = np.unique(at[history], return_index=True)
        ends = np.append(starts[1:], len(history))
        for t, a, b in zip(steps[: cfg.horizon + 1].tolist(), starts, ends):
            visits.append((r, _majority_segment(g, history[a:b])))
            # one seed array per state, so iter_cascades checks it once
            seeds = history[:b]
            probes += [(prop, seeds, derive_seed(rng_seed, "probe", r, sim, t, rp))
                       for rp, prop in enumerate(props)]

    one_step = replace(params, max_steps=1, drift=0.0)
    for i, rec in enumerate(iter_cascades(g, probes, one_step)):
        (r, s), rp = visits[i // R], i % R
        gained = int(rec.new_per_step[1])
        gain_sum[r, s, rp] += gained
        gain_cnt[r, s, rp] += 1
        if gained:
            trans_cnt[r, s, rp, _majority_segment(g, rec.activation_time == 1)] += 1

    observed = gain_cnt[:, :, 0] > 0
    with np.errstate(invalid="ignore"):
        reward = np.where(gain_cnt > 0, gain_sum / np.maximum(gain_cnt, 1), 0.0)
    total = trans_cnt.sum(axis=3, keepdims=True)
    trans = np.divide(trans_cnt, total, out=np.zeros((R, n_seg, R, n_seg)), where=total > 0)

    if not observed.all():
        logger.warning("dp_policy: %d unreached (codebook, segment) pairs valued 0",
                       int((~observed).sum()))

    immediate = reward[np.arange(R), :, np.arange(R)]  # reward[r, s, r]
    seed_seg = SEGMENT_ORDER.index(str(g.segments[int(v)]))

    if cfg.horizon == 0:
        values = np.zeros((0, R, n_seg))
        recommendation = int(np.argmax(immediate[:, seed_seg]))
        return DpResult(values=values, recommendation=recommendation,
                        immediate_reward=immediate, transitions=trans, observed=observed)

    values = np.zeros((cfg.horizon, R, n_seg))
    v_next = np.zeros((R, n_seg))
    for t in range(cfg.horizon - 1, -1, -1):
        # best over r' of reward plus expected continuation, never below 0
        best = (reward + (trans * v_next).sum(axis=3)).max(axis=2)
        v_next = values[t] = np.where(observed, np.maximum(0.0, best), 0.0)

    recommendation = int(np.argmax(values[0, :, seed_seg]))
    return DpResult(values=values, recommendation=recommendation,
                    immediate_reward=immediate, transitions=trans, observed=observed)
