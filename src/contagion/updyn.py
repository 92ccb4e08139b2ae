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
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameter
from .netgen import WeightedGraph

logger = logging.getLogger(__name__)

# A live weighted degree at or below this holds no tie mass. Drift can zero
# every incident weight of a node (a neighbor pulled antipodal to it), and the
# incremental degree tallies then keep only rounding residue.
TIE_EPS = 1e-12
# A lockstep batch holds at most this many state cells (array entries): five
# per node for each run, plus the run's own degrees, features and edge
# weights under drift. At n = 1000 that is 419 runs in about 14 MB.
CHUNK_CELLS = 2 ** 21


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


def _is_int(val) -> bool:
    return isinstance(val, (int, np.integer)) and not isinstance(val, bool)


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
        if not _is_int(self.epsilon):
            raise InvalidParameter("epsilon",
                                   f"cooling period must be an integer, got {self.epsilon!r}")
        if self.epsilon < 1:
            raise InvalidParameter("epsilon", f"cooling period must be >= 1, got {self.epsilon}")
        if not 0.0 <= self.drift <= 1.0:
            raise InvalidParameter("lambda", f"drift rate must be in [0,1], got {self.drift}")
        if self.max_steps is not None and not _is_int(self.max_steps):
            raise InvalidParameter("max_steps",
                                   f"must be an integer when given, got {self.max_steps!r}")
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
    weights and degrees are the graph's own arrays unless ``owns_live``, which
    ``init_state`` sets under drift by giving the run copies to rewrite.
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


@dataclass
class RunTally:
    """What a set of cascades did: runs, synchronous steps (``converged_at``
    summed), Bernoulli draws (eligible-set sizes summed over steps) and runs
    stopped by the step cap."""

    cascades: int = 0
    steps: int = 0
    draws: int = 0
    hit_cap_runs: int = 0

    def add(self, other: "RunTally") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> dict:
        return asdict(self)


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


def check_seeds(g: WeightedGraph, seeds) -> list:
    """Seed ids as ints; raises unless they are distinct, non-empty and in range."""
    seeds = [int(s) for s in seeds]
    if len(seeds) == 0:
        raise InvalidParameter("seeds", "seed set must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise InvalidParameter("seeds", "seed ids must be distinct")
    if min(seeds) < 0 or max(seeds) >= g.n:
        raise InvalidParameter("seeds", f"seed ids must lie in [0, {g.n})")
    return seeds


def _checked_propagation(g: WeightedGraph, c) -> Propagation:
    prop = as_propagation(c)
    if len(prop.vec) != g.features.k:
        raise InvalidParameter("propagation", "dimension does not match node features")
    return prop


# ---------------------------------------------------------------------------
# lockstep engine: R runs on one graph, one run per row of the state


@dataclass
class _Rows:
    """State of R cascades on one graph, run r in row r.

    Node arrays are flat: cell ``r * n + v`` holds node v of run r, so each
    row is the contiguous slice ``r * n : (r + 1) * n``. Unless ``own_live``,
    ``live_degree``, ``live_features`` and ``live_weights`` are the graph's
    (n,), (n, k) and (nnz,) arrays, shared by every row; with it each run
    has its own (R * n,), (R, n, k) and (R, nnz) copies, which drift
    rewrites.
    """

    n: int
    active: np.ndarray  # (R * n,) bool
    activation_time: np.ndarray  # (R * n,) int64, -1 = never activated
    active_nbr_count: np.ndarray  # (R * n,) int64
    active_wsum: np.ndarray  # (R * n,)
    affinity_hat: np.ndarray  # (R * n,)
    active_count: np.ndarray  # (R,) int64
    live_degree: np.ndarray
    live_features: np.ndarray
    live_weights: np.ndarray
    own_live: bool = False

    def row(self, name: str, r: int) -> np.ndarray:
        """View of run r's slice of a node array."""
        return getattr(self, name)[r * self.n:(r + 1) * self.n]

    def take(self, keep: np.ndarray) -> "_Rows":
        """The rows selected by ``keep``, in order."""
        R = len(self.active_count)
        kept = {name: getattr(self, name).reshape(R, -1)[keep].ravel()
                for name in ("active", "activation_time", "active_nbr_count", "active_wsum",
                             "affinity_hat")}
        kept["active_count"] = self.active_count[keep]
        if self.own_live:
            kept["live_degree"] = self.live_degree.reshape(R, -1)[keep].ravel()
            kept["live_features"] = self.live_features[keep]
            kept["live_weights"] = self.live_weights[keep]
        return replace(self, **kept)


def _fresh_rows(g: WeightedGraph, props, own_live: bool) -> _Rows:
    R, n = len(props), g.n
    affinity_hat = np.empty(R * n)
    for r, prop in enumerate(props):
        # one matrix-vector product per run keeps each row's bits
        affinity_hat[r * n:(r + 1) * n] = np.clip((1.0 + g.features.rows @ prop.vec) / 2.0,
                                                  0.0, 1.0)
    live = (g.weighted_degree, g.features.rows, g.weights.data)
    if own_live:
        live = (np.tile(g.weighted_degree, R), np.repeat(g.features.rows[None], R, axis=0),
                np.repeat(g.weights.data[None], R, axis=0))
    return _Rows(
        n=n,
        active=np.zeros(R * n, dtype=bool),
        activation_time=np.full(R * n, -1, dtype=np.int64),
        active_nbr_count=np.zeros(R * n, dtype=np.int64),
        active_wsum=np.zeros(R * n),
        affinity_hat=affinity_hat,
        active_count=np.zeros(R, dtype=np.int64),
        live_degree=live[0],
        live_features=live[1],
        live_weights=live[2],
        own_live=own_live,
    )


def _rows_of(state: CascadeState) -> _Rows:
    """One-row view of a single run's state; array writes go through to it."""
    features, weights = state.live_features, state.live_weights
    if state.owns_live:
        features, weights = features[None], weights[None]
    return _Rows(
        n=state.n,
        active=state.active,
        activation_time=state.activation_time,
        active_nbr_count=state.active_nbr_count,
        active_wsum=state.active_wsum,
        affinity_hat=state.affinity_hat,
        active_count=np.array([state.active_count], dtype=np.int64),
        live_degree=state.live_degree,
        live_features=features,
        live_weights=weights,
        own_live=state.owns_live,
    )


def _eligible(rows: _Rows, p: SimParams):
    """Cells that draw this step, as flat indices in row-major order (so each
    run's nodes ascend), and the list of their counts per row."""
    mask = ~rows.active
    if p.require_contact:
        mask &= rows.active_nbr_count > 0
    eligible = mask.nonzero()[0]
    if len(rows.active_count) == 1:
        return eligible, [len(eligible)]
    return eligible, np.add.reduce(mask.reshape(-1, rows.n), axis=1).tolist()


def _draw(rows: _Rows, p: SimParams, rngs, eligible: np.ndarray, counts: list):
    """Bernoulli draws over the eligible cells; a row may have none.

    Probabilities come from the pre-step state. Run r draws
    ``rngs[r].random(counts[r])`` for its eligible nodes in ascending order,
    so each run consumes its stream as if stepped alone. Returns the run and
    node of each cell that fires, and the list of firings per row.
    """
    R, n = len(rows.active_count), rows.n
    if R == 1:
        # one row: cells are node ids and the global term is one number
        run, node = None, eligible
        glob = p.global_weight * (int(rows.active_count[0]) / n)
        draws = rngs[0].random(len(eligible))
    else:
        run = np.arange(R).repeat(counts)
        node = eligible - run * n
        glob = (p.global_weight * (rows.active_count / n)).repeat(counts)
        draws = np.concatenate([rng.random(k) for rng, k in zip(rngs, counts)])
    degree = rows.live_degree[eligible if rows.own_live else node]
    li = np.divide(rows.active_wsum[eligible], degree, out=np.zeros(len(eligible)),
                   where=degree > TIE_EPS)
    probs = p.gamma * (p.alpha * rows.affinity_hat[eligible] + p.beta * li + glob)
    if p.gamma > 1.0:
        # all three scores sit in [0,1] and the weights sum to 1, so the
        # aggregate only leaves [0,1] for gamma above 1
        np.clip(probs, 0.0, 1.0, out=probs)
    hits = draws < probs
    if R == 1:
        fired = node[hits]
        return None, fired, [len(fired)]
    run = run[hits]
    return run, node[hits], np.bincount(run, minlength=R).tolist()


def _activate_rows(rows: _Rows, g: WeightedGraph, run, node, t) -> None:
    """Activate the distinct cells (run[i], node[i]) at step ``t`` and credit
    their neighbours; with one row ``run`` is ignored.

    ``t`` is one step for all cells or one per cell. One scatter over the
    nodes' CSR rows, in the given order, adds to every neighbour cell in the
    same order as activating the cells one by one.
    """
    R, n = len(rows.active_count), rows.n
    pos = g.raw.row_positions(node)
    cells = g.raw.indices[pos]
    if R == 1:
        # one row: cells are node ids
        flat, weights = node, rows.live_weights.ravel()[pos]
        rows.active_count[0] += len(node)
    else:
        flat = run * n + node
        runs = run.repeat(g.raw.indptr[node + 1] - g.raw.indptr[node])
        weights = rows.live_weights[runs, pos] if rows.own_live else rows.live_weights[pos]
        cells = cells + runs * n
        rows.active_count += np.bincount(run, minlength=R)
    rows.active[flat] = True
    rows.activation_time[flat] = t
    np.add.at(rows.active_nbr_count, cells, 1)
    np.add.at(rows.active_wsum, cells, weights)


def _advance(rows: _Rows, g: WeightedGraph, p: SimParams, rngs, props, t: int):
    """Advance every row one synchronous step, to step ``t``.

    Row r draws from ``rngs[r]``, its fired cells are activated and, under
    drift, its new nodes drift toward ``props[r]``. Returns the number of
    draws made and the list of new adopters per row.
    """
    eligible, counts = _eligible(rows, p)
    run, node, new = _draw(rows, p, rngs, eligible, counts)
    if len(node):
        _activate_rows(rows, g, run, node, t)
        if p.drift > 0.0:
            start = 0
            for r, k in enumerate(new):
                if k:
                    _apply_drift(rows.live_features[r], rows.live_weights[r],
                                 rows.row("live_degree", r), rows.row("active_wsum", r),
                                 rows.row("active", r), g, props[r], p.drift,
                                 node[start:start + k])
                start += k
    return len(eligible), new


def _apply_drift(features, weights, degree, wsum, active, g: WeightedGraph, c, lam: float,
                 new_nodes) -> None:
    """Drift one run's newly activated features and refresh their incident
    weights, on that run's live arrays.

    Processed in ascending node order after all draws of the step; weight
    refreshes use the current live features, so simultaneous activations see
    one another's updated features once processed.
    """
    indptr = g.raw.indptr
    for v in sorted(int(x) for x in new_nodes):
        new_x = drift_update(features[v], c, lam)
        features[v] = new_x
        row = slice(indptr[v], indptr[v + 1])
        nbrs = g.raw.indices[row]
        new_w = np.clip((1.0 + features[nbrs] @ new_x) / 2.0, 0.0, 1.0)
        delta = new_w - weights[row]
        weights[row] = new_w
        weights[g.rev[row]] = new_w
        degree[v] += float(delta.sum())
        degree[nbrs] += delta
        # v is active, so its weight change moves the neighbors' active mass
        wsum[nbrs] += delta
        for d in delta[active[nbrs]]:
            # one add per active neighbor in neighbor order; pinned-seed
            # records depend on this rounding
            wsum[v] += d


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


def init_state(g: WeightedGraph, c, seeds, p: SimParams) -> CascadeState:
    """Fresh run state with the seed set active at time 0. Under drift it
    owns copies of the graph's degrees, features and weights for ``step`` to
    rewrite; otherwise it shares the graph's arrays."""
    seeds = check_seeds(g, seeds)
    rows = _fresh_rows(g, [_checked_propagation(g, c)], own_live=p.drift > 0.0)
    _activate_rows(rows, g, None, np.array(seeds, dtype=np.int64), 0)
    return CascadeState(
        active=rows.active,
        activation_time=rows.activation_time,
        step=0,
        stable_steps=0,
        active_count=int(rows.active_count[0]),
        active_nbr_count=rows.active_nbr_count,
        active_wsum=rows.active_wsum,
        live_degree=rows.live_degree,
        live_features=rows.live_features.reshape(g.n, g.features.k),
        live_weights=rows.live_weights.ravel(),
        affinity_hat=rows.affinity_hat,
        owns_live=rows.own_live,
    )


def step(state: CascadeState, c, g: WeightedGraph, p: SimParams,
         rng: np.random.Generator) -> int:
    """Advance one synchronous step; returns the number of new adopters.

    The one-row case of the lockstep engine's step: probabilities are
    computed from the pre-step state; draws happen in ascending node id
    order. With ``require_contact`` only inactive nodes with an active
    neighbor participate. Under drift the state must own its live arrays
    (``init_state`` with drift); one sharing the graph's is refused.
    """
    if p.drift > 0.0 and not state.owns_live:
        raise InvalidParameter("lambda", "drift needs a state built by init_state with drift")
    rows = _rows_of(state)
    _, (new,) = _advance(rows, g, p, [rng], [c], state.step + 1)
    state.step += 1
    state.active_count = int(rows.active_count[0])
    state.stable_steps = 0 if new else state.stable_steps + 1
    return new


def run_cascade(g: WeightedGraph, c, seeds, p: SimParams, rng_seed: int) -> CascadeRecord:
    """Run one cascade to convergence (cooling period) or the step cap."""
    return run_cascades(g, [(c, seeds, rng_seed)], p)[0]


def run_cascades(g: WeightedGraph, runs, p: SimParams, tally: RunTally | None = None) -> list:
    """Run cascades ``(c, seeds, rng_seed)`` on one graph in lockstep.

    Each run gets its own generator, draws for its eligible nodes in
    ascending order and is credited by the same ordered scatter as when
    stepped alone, so its record is bit-identical to a solo run. Records
    come back in input order; ``tally``, when given, accumulates what they
    did. See ``iter_cascades`` for a caller that keeps only a summary.
    """
    return list(iter_cascades(g, runs, p, tally))


def iter_cascades(g: WeightedGraph, runs, p: SimParams, tally: RunTally | None = None):
    """``run_cascades`` as an iterator: every run is checked before any
    starts, then runs are advanced in batches of at most ``CHUNK_CELLS``
    state cells and a batch's records are yielded, in input order, before
    the next batch starts, so a caller that drops each record holds at most
    one batch of them.
    """
    checked = []
    for c, seeds, rng_seed in runs:
        seeds = check_seeds(g, seeds)
        checked.append((_checked_propagation(g, c), seeds, int(rng_seed)))
    row_cells = 5 * g.n
    if p.drift > 0.0:
        row_cells += g.n * (1 + g.features.k) + len(g.raw.indices)
    return _batches(g, checked, p, max(1, CHUNK_CELLS // row_cells), tally)


def _batches(g: WeightedGraph, runs, p: SimParams, size: int, tally: RunTally | None):
    for start in range(0, len(runs), size):
        records, draws = _run_chunk(g, runs[start:start + size], p)
        if tally is not None:
            tally.add(RunTally(cascades=len(records),
                               steps=sum(r.converged_at for r in records),
                               draws=draws, hit_cap_runs=sum(r.hit_cap for r in records)))
        yield from records
        del records


def _run_chunk(g: WeightedGraph, runs, p: SimParams):
    """Step checked runs together until each converges or hits the cap.

    Returns their records in input order and the number of draws made.
    """
    n, R = g.n, len(runs)
    props = [prop for prop, _, _ in runs]
    rows = _fresh_rows(g, props, own_live=p.drift > 0.0)
    sizes = [len(seeds) for _, seeds, _ in runs]
    _activate_rows(rows, g, np.arange(R).repeat(sizes),
                   np.array([s for _, seeds, _ in runs for s in seeds], dtype=np.int64), 0)
    rngs = [np.random.default_rng(rng_seed) for _, _, rng_seed in runs]
    live = list(range(R))  # input position of each row
    stable = [0] * R
    waves = [[k] for k in sizes]
    max_steps = p.resolve_max_steps(n)
    records = [None] * R
    draws = t = 0

    def retire(done):
        """Record the rows flagged in ``done``, ended at step ``t``; drop them."""
        nonlocal rows, live, stable, rngs, props
        for r in (r for r, d in enumerate(done) if d):
            i = live[r]
            prop, seeds, rng_seed = runs[i]
            records[i] = CascadeRecord(
                params=p,
                seed_set=tuple(seeds),
                propagation=prop,
                rng_seed=rng_seed,
                activation_time=rows.row("activation_time", r).copy(),
                new_per_step=np.array(waves[i], dtype=np.int64),
                final_spread=int(rows.active_count[r]),
                converged_at=t,
                hit_cap=stable[r] < p.epsilon,
                model="up",
            )
        keep = [not d for d in done]
        if any(keep):
            live, stable, rngs, props = ([x for x, k in zip(xs, keep) if k]
                                         for xs in (live, stable, rngs, props))
            rows = rows.take(np.array(keep))
        else:
            live = []

    while live:
        t += 1
        made, new = _advance(rows, g, p, rngs, props, t)
        draws += made
        for r, k in enumerate(new):
            waves[live[r]].append(k)
            stable[r] = 0 if k else stable[r] + 1
        if t >= max_steps or max(stable) >= p.epsilon:
            retire([t >= max_steps or s >= p.epsilon for s in stable])
    return records, draws


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
