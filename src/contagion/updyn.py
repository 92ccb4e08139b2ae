"""Unified-propagation cascade dynamics.

A propagating notion is a unit vector in the node feature space. Each step,
inactive nodes draw an independent Bernoulli whose parameter combines three
calibrated scores from the previous step's state:

    affinity  (1 + c . x_v) / 2
    local     (1 + LI) / 2 with LI = (sum_active w - sum_inactive w) / d_v,
              which simplifies to (active weight mass) / d_v; zero for a
              node without tie mass (weighted degree at most TIE_EPS)
    global    |S| / n

aggregated as gamma * (alpha * affinity + beta * local + (1-alpha-beta) * global)
and clamped into [0, 1]. Activation is irreversible; a run converges once the
state is unchanged for ``epsilon`` consecutive steps (the cooling period).

By default only inactive nodes with at least one active neighbor draw
(contact-mediated spreading, which is what produces the bimodal spread
distributions and incubation behavior this toolkit studies). Setting
``require_contact=False`` lets every inactive node draw each step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameter
from .netgen import WeightedGraph

logger = logging.getLogger(__name__)

# A live weighted degree at or below this holds no tie mass. Drift can zero
# every incident weight of a node (a neighbor pulled antipodal to it), and the
# incremental degree tallies then keep only rounding residue.
TIE_EPS = 1e-12


@dataclass(frozen=True)
class Propagation:
    """Unit-length direction of the propagating notion."""

    vec: np.ndarray

    def __post_init__(self):
        norm = float(np.linalg.norm(self.vec))
        if not abs(norm - 1.0) <= 1e-9:  # also rejects NaN entries
            raise InvalidParameter("propagation", f"vector norm {norm} is not 1")

    @classmethod
    def from_vector(cls, raw) -> "Propagation":
        """Normalize an arbitrary nonzero vector onto the unit sphere."""
        try:
            arr = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError):
            raise InvalidParameter("propagation", f"not a numeric vector: {raw!r}") from None
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise InvalidParameter("propagation", "zero vector cannot be normalized")
        if not np.isfinite(norm):
            raise InvalidParameter("propagation", "vector entries must be finite")
        return cls(vec=arr / norm)


def as_propagation(c) -> Propagation:
    return c if isinstance(c, Propagation) else Propagation.from_vector(c)


@dataclass(frozen=True)
class SimParams:
    """Parameter bundle for the unified-propagation dynamics.

    ``max_steps=None`` means 10 * n, resolved per run. ``drift`` is the
    post-activation feature adaptation rate (0 disables the dynamic-weights
    extension).
    """

    alpha: float = 1.0 / 3.0
    beta: float = 1.0 / 3.0
    gamma: float = 0.05
    epsilon: int = 10
    drift: float = 0.0
    max_steps: int | None = None
    viral_fraction: float = 0.5
    require_contact: bool = True

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidParameter("alpha", f"must be in [0,1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise InvalidParameter("beta", f"must be in [0,1], got {self.beta}")
        if self.alpha + self.beta > 1.0 + 1e-12:
            raise InvalidParameter("beta", f"alpha + beta = {self.alpha + self.beta} exceeds 1")
        if not 0.0 <= self.gamma < np.inf:
            raise InvalidParameter("gamma", f"must be finite and >= 0, got {self.gamma}")
        if self.epsilon < 1:
            raise InvalidParameter("epsilon", f"cooling period must be >= 1, got {self.epsilon}")
        if not 0.0 <= self.drift <= 1.0:
            raise InvalidParameter("lambda", f"drift rate must be in [0,1], got {self.drift}")
        if self.max_steps is not None and self.max_steps < 1:
            raise InvalidParameter("max_steps", "must be >= 1 when given")
        if not 0.0 < self.viral_fraction <= 1.0:
            raise InvalidParameter("viral_fraction", f"must be in (0,1], got {self.viral_fraction}")

    @property
    def global_weight(self) -> float:
        return 1.0 - self.alpha - self.beta

    def resolve_max_steps(self, n: int) -> int:
        return self.max_steps if self.max_steps is not None else 10 * n

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "epsilon": self.epsilon,
            "lambda": self.drift,
            "max_steps": self.max_steps,
            "viral_fraction": self.viral_fraction,
            "require_contact": self.require_contact,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SimParams":
        kwargs = dict(doc)
        if "lambda" in kwargs:
            kwargs["drift"] = kwargs.pop("lambda")
        return cls(**kwargs)


@dataclass
class CascadeState:
    """Mutable state owned by a single cascade run.

    ``active_wsum[v]`` caches the live-weight mass of v's active neighbors so
    the scaled local influence is just ``active_wsum[v] / live_degree[v]``.
    ``live_weights`` is the data array of the graph's weight CSR. Features,
    weights and degrees are shared with the graph until drift first writes,
    then copied.
    """

    active: np.ndarray
    activation_time: np.ndarray  # -1 = never activated
    step: int
    stable_steps: int
    active_count: int
    active_nbr_count: np.ndarray
    active_wsum: np.ndarray
    live_degree: np.ndarray
    live_features: np.ndarray
    live_weights: np.ndarray  # aligned with g.raw.indices
    affinity_hat: np.ndarray
    owns_live: bool = False

    @property
    def n(self) -> int:
        return len(self.active)


@dataclass(frozen=True)
class CascadeRecord:
    """Full trajectory of one simulation run."""

    params: object  # SimParams for UP runs, BaselineConfig for baselines
    seed_set: tuple
    propagation: Propagation | None
    rng_seed: int | None
    activation_time: np.ndarray
    new_per_step: np.ndarray
    final_spread: int
    converged_at: int
    hit_cap: bool
    model: str = "up"

    @property
    def n(self) -> int:
        return len(self.activation_time)

    def to_dict(self) -> dict:
        if self.params is None:
            params = None
        else:
            params = self.params.to_dict()
        return {
            "model": self.model,
            "params": params,
            "seed_set": [int(v) for v in self.seed_set],
            "propagation": None
            if self.propagation is None
            else [float(x) for x in self.propagation.vec],
            "rng_seed": None if self.rng_seed is None else int(self.rng_seed),
            "activation_time": [
                None if t < 0 else int(t) for t in self.activation_time
            ],
            "new_per_step": [int(x) for x in self.new_per_step],
            "final_spread": int(self.final_spread),
            "converged_at": int(self.converged_at),
            "hit_cap": bool(self.hit_cap),
        }


def affinity(c, x_v) -> float:
    """Calibrated propagation affinity (1 + c . x_v) / 2 in [0, 1]."""
    vec = as_propagation(c).vec
    return float(np.clip((1.0 + float(np.dot(vec, x_v))) / 2.0, 0.0, 1.0))


def local_influence(v: int, state: CascadeState, g: WeightedGraph) -> float:
    """Scaled local influence (1 + LI) / 2 = active weight mass over degree.

    A node without tie mass (live degree at most ``TIE_EPS``) feels none.
    """
    d = float(state.live_degree[v])
    if d <= TIE_EPS:
        return 0.0
    return float(np.clip(state.active_wsum[v] / d, 0.0, 1.0))


def global_influence(state: CascadeState, n: int) -> float:
    """Network-wide adoption rate |S| / n."""
    return state.active_count / n


def activation_prob(v: int, state: CascadeState, c, g: WeightedGraph, p: SimParams) -> float:
    """Per-node activation probability, Bernoulli parameter for one step."""
    vec = as_propagation(c).vec
    aff = (1.0 + float(np.dot(vec, state.live_features[v]))) / 2.0
    li = local_influence(v, state, g)
    gi = global_influence(state, state.n)
    raw = p.gamma * (p.alpha * aff + p.beta * li + p.global_weight * gi)
    return float(np.clip(raw, 0.0, 1.0))


def init_state(g: WeightedGraph, c, seeds, p: SimParams) -> CascadeState:
    """Fresh run state with the seed set active at time 0."""
    seeds = [int(s) for s in seeds]
    if len(seeds) == 0:
        raise InvalidParameter("seeds", "seed set must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise InvalidParameter("seeds", "seed ids must be distinct")
    if min(seeds) < 0 or max(seeds) >= g.n:
        raise InvalidParameter("seeds", f"seed ids must lie in [0, {g.n})")
    vec = as_propagation(c).vec
    if len(vec) != g.features.k:
        raise InvalidParameter("propagation", "dimension does not match node features")

    n = g.n
    active = np.zeros(n, dtype=bool)
    activation_time = np.full(n, -1, dtype=np.int64)
    active_nbr_count = np.zeros(n, dtype=np.int64)
    active_wsum = np.zeros(n, dtype=np.float64)
    state = CascadeState(
        active=active,
        activation_time=activation_time,
        step=0,
        stable_steps=0,
        active_count=0,
        active_nbr_count=active_nbr_count,
        active_wsum=active_wsum,
        live_degree=g.weighted_degree,
        live_features=g.features.rows,
        live_weights=g.weights.data,
        affinity_hat=np.clip((1.0 + g.features.rows @ vec) / 2.0, 0.0, 1.0),
        owns_live=False,
    )
    _activate(state, g, seeds, 0)
    return state


def _activate(state: CascadeState, g: WeightedGraph, nodes, t) -> None:
    """Activate distinct ``nodes`` at step ``t`` and credit their neighbours.

    ``t`` is one step for all nodes or one per node. One scatter over the
    nodes' CSR rows in the given order adds to every neighbour in the same
    order as activating the nodes one by one.
    """
    state.active[nodes] = True
    state.activation_time[nodes] = t
    state.active_count += len(nodes)
    pos = g.raw.row_positions(nodes)
    nbrs = g.raw.indices[pos]
    np.add.at(state.active_nbr_count, nbrs, 1)
    np.add.at(state.active_wsum, nbrs, state.live_weights[pos])


def _ensure_owned(state: CascadeState, g: WeightedGraph) -> None:
    # copy-on-write for the drift path
    if not state.owns_live:
        state.live_features = state.live_features.copy()
        state.live_degree = state.live_degree.copy()
        state.live_weights = state.live_weights.copy()
        state.owns_live = True


def drift_update(x_v: np.ndarray, c, lam: float) -> np.ndarray:
    """Post-activation feature pull toward the propagation direction.

    Returns normalize((1-lam) x_v + lam c). The exactly antipodal lam=1/2
    case has no direction; the feature is kept unchanged and logged.
    """
    vec = as_propagation(c).vec
    mixed = (1.0 - lam) * np.asarray(x_v, dtype=np.float64) + lam * vec
    norm = float(np.linalg.norm(mixed))
    if norm < 1e-12:
        logger.warning("drift update degenerate (antipodal feature); keeping feature")
        return np.asarray(x_v, dtype=np.float64).copy()
    return mixed / norm


def _apply_drift(state: CascadeState, g: WeightedGraph, c, lam: float, new_nodes) -> None:
    """Drift newly activated features and refresh their incident weights.

    Processed in ascending node order after all draws of the step; weight
    refreshes use the current live features, so simultaneous activations see
    one another's updated features once processed.
    """
    _ensure_owned(state, g)
    indptr = g.raw.indptr
    for v in sorted(int(x) for x in new_nodes):
        new_x = drift_update(state.live_features[v], c, lam)
        state.live_features[v] = new_x
        row = slice(indptr[v], indptr[v + 1])
        nbrs = g.raw.indices[row]
        new_w = np.clip((1.0 + state.live_features[nbrs] @ new_x) / 2.0, 0.0, 1.0)
        delta = new_w - state.live_weights[row]
        state.live_weights[row] = new_w
        state.live_weights[g.rev[row]] = new_w
        state.live_degree[v] += float(delta.sum())
        state.live_degree[nbrs] += delta
        # v is active, so its weight change moves the neighbors' active mass
        state.active_wsum[nbrs] += delta
        for d in delta[state.active[nbrs]]:
            # one add per active neighbor in neighbor order; pinned-seed
            # records depend on this rounding
            state.active_wsum[v] += d


def step(state: CascadeState, c, g: WeightedGraph, p: SimParams,
         rng: np.random.Generator) -> int:
    """Advance one synchronous step; returns the number of new adopters.

    Probabilities are computed from the pre-step state; draws happen in
    ascending node id order. With ``require_contact`` only inactive nodes
    with an active neighbor participate.
    """
    t = state.step + 1
    if p.require_contact:
        eligible = (~state.active & (state.active_nbr_count > 0)).nonzero()[0]
    else:
        eligible = (~state.active).nonzero()[0]

    if len(eligible) == 0:
        state.step = t
        state.stable_steps += 1
        return 0

    degree = state.live_degree[eligible]
    li = np.divide(state.active_wsum[eligible], degree, out=np.zeros(len(eligible)),
                   where=degree > TIE_EPS)
    gi = state.active_count / state.n
    probs = p.gamma * (
        p.alpha * state.affinity_hat[eligible] + p.beta * li + p.global_weight * gi
    )
    if p.gamma > 1.0:
        # all three scores sit in [0,1] and the weights sum to 1, so the
        # aggregate only leaves [0,1] for gamma above 1
        np.clip(probs, 0.0, 1.0, out=probs)
    hits = rng.random(len(eligible)) < probs
    new_nodes = eligible[hits]

    if len(new_nodes):
        _activate(state, g, new_nodes, t)
        if p.drift > 0.0:
            _apply_drift(state, g, c, p.drift, new_nodes)

    state.step = t
    state.stable_steps = 0 if len(new_nodes) else state.stable_steps + 1
    return int(len(new_nodes))


def run_cascade(g: WeightedGraph, c, seeds, p: SimParams, rng_seed: int) -> CascadeRecord:
    """Run one cascade to convergence (cooling period) or the step cap."""
    prop = as_propagation(c)
    state = init_state(g, prop, seeds, p)
    rng = np.random.default_rng(int(rng_seed))
    max_steps = p.resolve_max_steps(g.n)
    new_per_step = [len(seeds)]

    while state.stable_steps < p.epsilon and state.step < max_steps:
        new_per_step.append(step(state, prop, g, p, rng))

    return CascadeRecord(
        params=p,
        seed_set=tuple(int(s) for s in seeds),
        propagation=prop,
        rng_seed=int(rng_seed),
        activation_time=state.activation_time.copy(),
        new_per_step=np.array(new_per_step, dtype=np.int64),
        final_spread=int(state.active_count),
        converged_at=state.step,
        hit_cap=state.stable_steps < p.epsilon,
        model="up",
    )


def step_probs_matrix(state: CascadeState, c, g: WeightedGraph, p: SimParams) -> np.ndarray:
    """Activation-probability vector for every node via the matrix form.

    gamma * (alpha * Fhat + beta * (D^-1 W (2Y - 1) + 1) / 2 + gw * GI * 1),
    which reproduces the per-node scores exactly; the local term is zero on
    rows without tie mass. Reads the live weights, which drift may have
    rewritten.
    """
    vec = as_propagation(c).vec
    weights = sp.csr_matrix((state.live_weights, g.raw.indices, g.raw.indptr), shape=(g.n, g.n))
    fhat = (1.0 + state.live_features @ vec) / 2.0
    signed = 2.0 * state.active.astype(np.float64) - 1.0
    tied = state.live_degree > TIE_EPS
    li_hat = np.zeros(g.n)
    li_hat[tied] = ((weights @ signed)[tied] / state.live_degree[tied] + 1.0) / 2.0
    gi = state.active_count / state.n
    probs = p.gamma * (p.alpha * fhat + p.beta * li_hat + p.global_weight * gi)
    return np.clip(probs, 0.0, 1.0)


def self_propagation(g: WeightedGraph, v: int) -> Propagation:
    """Propagation aligned with a node's own feature vector."""
    return Propagation(vec=g.features.rows[int(v)].copy())
