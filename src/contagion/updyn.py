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
from itertools import groupby

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
# Relative margin of the thinning cap gamma * (1 + THIN_MARGIN) in ``_draw``:
# rounding can lift a probability above gamma by at most about 4 d eps for a
# node of degree d, below 1e-9 for any degree under 10^6.
THIN_MARGIN = 1e-6


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
    """State of R cascades on one graph, run r in row r; a single run is the
    one-row case R = 1, which ``init_state`` builds and ``step`` advances.

    Every per-cell array is flat: cell ``r * n + v`` holds node v of run r,
    so each row is the contiguous slice ``r * n : (r + 1) * n``.
    ``active_wsum`` caches the live-weight mass of each cell's active
    neighbours, so the scaled local influence is ``active_wsum / live_degree``.
    Unless ``owns_live``, ``live_degree``, ``live_features`` and
    ``live_weights`` are the graph's (n,), (n, k) and (nnz,) arrays, shared
    by every row; with it each run has its own copies, flat like the rest,
    (R * n,), (R * n, k) and (R * nnz,) with run r's weight at position pos
    in cell ``r * nnz + pos``, which drift rewrites. ``step`` and
    ``stable_steps`` are a lone run's counters, kept by ``step``. The scalar
    probability helpers read a one-row state.
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
    live_weights: np.ndarray  # aligned with g.raw.indices, run after run
    owns_live: bool = False
    step: int = 0
    stable_steps: int = 0

    def row(self, name: str, r: int) -> np.ndarray:
        """View of run r's slice of a per-cell array (one the state owns
        per run, or any array of a one-row state)."""
        cells = getattr(self, name)
        size = len(cells) // len(self.active_count)
        return cells[r * size:(r + 1) * size]

    def take(self, keep: np.ndarray) -> "CascadeState":
        """The rows selected by ``keep``, in order."""
        names = ["active", "activation_time", "active_nbr_count", "active_wsum", "affinity_hat"]
        if self.owns_live:
            names += ["live_degree", "live_features", "live_weights"]
        R = len(self.active_count)
        kept = {}
        for name in names:
            cells = getattr(self, name)
            kept[name] = cells.reshape(R, -1, *cells.shape[1:])[keep].reshape(-1, *cells.shape[1:])
        kept["active_count"] = self.active_count[keep]
        return replace(self, **kept)


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
    return int(state.active_count[0]) / n


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


def check_rng_seed(rng_seed) -> int:
    """A run's generator seed as an int; raises unless it is a non-negative
    Python or numpy integer (a bool is refused)."""
    if not _is_int(rng_seed) or rng_seed < 0:
        raise InvalidParameter("rng_seed", f"must be a non-negative integer, got {rng_seed!r}")
    return int(rng_seed)


def _checked_propagation(g: WeightedGraph, c) -> Propagation:
    prop = as_propagation(c)
    if len(prop.vec) != g.features.k:
        raise InvalidParameter("propagation", "dimension does not match node features")
    return prop


# ---------------------------------------------------------------------------
# lockstep engine: R runs on one graph, one run per row of the state


def _affinities(g: WeightedGraph, props) -> np.ndarray:
    """Calibrated affinities of every node under each propagation, run r's
    in row r of a flat (R * n,) array.

    Consecutive runs whose vector is the same object share one
    matrix-vector product, the same call on the same input a solo run
    makes, so every row keeps its bits.
    """
    affinity_hat = np.empty((len(props), g.n))
    r = 0
    for _, stretch in groupby(props, key=lambda prop: id(prop.vec)):
        stretch = list(stretch)
        affinity_hat[r:r + len(stretch)] = np.clip(
            (1.0 + g.features.rows @ stretch[0].vec) / 2.0, 0.0, 1.0)
        r += len(stretch)
    return affinity_hat.ravel()


def _fresh_rows(g: WeightedGraph, affinity_hat: np.ndarray, own_live: bool) -> CascadeState:
    """State with nothing active, one row per run of ``affinity_hat`` (see
    ``_affinities``)."""
    n = g.n
    R = len(affinity_hat) // n
    live = (g.weighted_degree, g.features.rows, g.weights.data)
    if own_live:
        live = tuple(np.concatenate([cells] * R) for cells in live)
    return CascadeState(
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
        owns_live=own_live,
    )


def _eligible(rows: CascadeState, p: SimParams):
    """Cells that draw this step, as flat indices in row-major order (so each
    run's nodes ascend), and their counts per row: a list for one row, else
    an array read off the ascending indices at the row boundaries."""
    mask = ~rows.active
    if p.require_contact:
        mask &= rows.active_nbr_count > 0
    eligible = mask.nonzero()[0]
    R = len(rows.active_count)
    if R == 1:
        return eligible, [len(eligible)]
    bounds = eligible.searchsorted(np.arange(0, (R + 1) * rows.n, rows.n))
    return eligible, bounds[1:] - bounds[:-1]


def _draw(rows: CascadeState, p: SimParams, rngs, eligible: np.ndarray, counts):
    """Bernoulli draws over the eligible cells; a row may have none.

    Probabilities come from the pre-step state. Run r draws
    ``rngs[r].random(counts[r])`` for its eligible nodes in ascending order,
    so each run consumes its stream as if stepped alone; a probability is
    computed only for the draws below the thinning cap. Returns the run and
    node of each cell that fires, and the firings per row (a list for one
    row, else an array).
    """
    R, n = len(rows.active_count), rows.n
    if R == 1:
        draws = rngs[0].random(len(eligible))
    else:
        draws = np.concatenate([rng.random(k) for rng, k in zip(rngs, counts.tolist())])
    # Thinning: a draw at or above the cap misses, so only the draws below it
    # need a probability. Without drift no probability exceeds the cap: the
    # affinity and the global term lie in [0, 1], the local term is a ratio of
    # two sums of the same weights, which every WeightedGraph builder keeps in
    # [0, 1] (at most 1 + 4 d eps at degree d), and the three weights sum to
    # at most 1 + 1e-12 + 2 eps. Drift moves a row's degrees and active
    # masses by separate deltas, so a degree just above TIE_EPS can leave the
    # local term far above 1: those rows are not thinned. A cap of 1 or more
    # would keep every draw.
    cap = p.gamma * (1.0 + THIN_MARGIN)
    cells = eligible
    if cap < 1.0 and not rows.owns_live:
        keep = (draws < cap).nonzero()[0]
        cells, draws = eligible[keep], draws[keep]
    if R == 1:
        # one row: cells are node ids and the global term is one number
        run, node = None, cells
        glob = p.global_weight * (int(rows.active_count[0]) / n)
    else:
        run, node = np.divmod(cells, n)
        glob = (p.global_weight * (rows.active_count / n))[run]
    degree = rows.live_degree[cells if rows.owns_live else node]
    li = np.divide(rows.active_wsum[cells], degree, out=np.zeros(len(cells)),
                   where=degree > TIE_EPS)
    probs = p.gamma * (p.alpha * rows.affinity_hat[cells] + p.beta * li + glob)
    if p.gamma > 1.0:
        # all three scores sit in [0,1] and the weights sum to 1, so the
        # aggregate only leaves [0,1] for gamma above 1
        np.clip(probs, 0.0, 1.0, out=probs)
    hits = draws < probs
    if R == 1:
        fired = node[hits]
        return None, fired, [len(fired)]
    run = run[hits]
    return run, node[hits], np.bincount(run, minlength=R)


def _activate_rows(rows: CascadeState, g: WeightedGraph, run, node, t: int, counts) -> None:
    """Activate the distinct cells (run[i], node[i]) at step ``t``, ``counts``
    of them per row, and credit their neighbours; with one row ``run`` is
    ignored.

    One scatter over the nodes' CSR rows, in the given order, adds to every
    neighbour cell in the same order as activating the cells one by one.
    """
    R, n = len(rows.active_count), rows.n
    pos = g.raw.row_positions(node)
    cells = g.raw.indices[pos]
    if R == 1:
        # one row: cells are node ids
        flat, weights = node, rows.live_weights[pos]
        rows.active_count[0] += counts[0]
    else:
        flat = run * n + node
        runs = run.repeat(g.raw.indptr[node + 1] - g.raw.indptr[node])
        if rows.owns_live:
            pos = runs * len(g.raw.indices) + pos
        weights = rows.live_weights[pos]
        cells = cells + runs * n
        rows.active_count += counts
    rows.active[flat] = True
    rows.activation_time[flat] = t
    np.add.at(rows.active_nbr_count, cells, 1)
    np.add.at(rows.active_wsum, cells, weights)


def _advance(rows: CascadeState, g: WeightedGraph, p: SimParams, rngs, vecs: np.ndarray, t: int):
    """Advance every row one synchronous step, to step ``t``.

    Row r draws from ``rngs[r]``, its fired cells are activated and, under
    drift, its new nodes drift toward the unit vector ``vecs[r]`` (``vecs``
    is unused without drift). Returns the number of draws made and the new
    adopters per row (a list for one row, else an array).
    """
    eligible, counts = _eligible(rows, p)
    run, node, new = _draw(rows, p, rngs, eligible, counts)
    if len(node):
        _activate_rows(rows, g, run, node, t, new)
        if p.drift > 0.0:
            _drift_rows(rows, g, np.zeros_like(node) if run is None else run, node, t, vecs,
                        p.drift)
    return len(eligible), new


def _drift_rows(rows: CascadeState, g: WeightedGraph, run, node, t: int, vecs: np.ndarray,
                lam: float) -> None:
    """Drift the cells (run[i], node[i]) activated at step ``t``, given in
    row-major order, toward their row's propagation ``vecs[run[i]]`` and
    refresh their incident weights: one pass over every row's live arrays.

    Each row ends bit-identical to drifting its new nodes one at a time in
    ascending order, after all of the step's draws:
    - node v's feature becomes normalize((1 - lam) x_v + lam c); when that
      mix is the zero vector (x_v antipodal to c at lam = 1/2) it is kept,
      with a warning;
    - each weight at v becomes clip((1 + x_u . x_v) / 2, 0, 1), where x_u is
      u's drifted feature if u is new and earlier in the row, else its live
      one; the later new endpoint of an edge writes its final value;
    - the change of each weight, from the value v saw (what an earlier new
      u wrote, else the stored one), is added to v's and u's degree, to u's
      active mass and, if u is active, to v's, one add at a time in that
      node-by-node order.
    Rounding matches only under the same numpy and BLAS calls: a norm is
    the ``ddot`` ``np.linalg.norm`` makes, and each degree's dot products
    and weight-change totals are one stacked call shaped as one node's.
    """
    n, k, nnz = rows.n, g.features.k, len(g.raw.indices)
    indptr, indices, rev = g.raw.indptr, g.raw.indices, g.rev
    cells = run * n + node  # ascending: the order of the node-by-node pass
    # lay the new nodes out by degree (stably), so each degree is one slice
    deg = indptr[node + 1] - indptr[node]
    by_deg = deg.argsort(kind="stable")
    run, node, deg, own = run[by_deg], node[by_deg], deg[by_deg], cells[by_deg]

    x = rows.live_features[own]
    mixed = (1.0 - lam) * x + lam * vecs[run]
    norm = np.sqrt(np.matmul(mixed[:, None, :], mixed[:, :, None]))[:, 0, 0]
    degenerate = norm < 1e-12
    for _ in range(np.count_nonzero(degenerate)):
        logger.warning("drift update degenerate (antipodal feature); keeping feature")
    new_x = np.divide(mixed, norm[:, None], out=x, where=~degenerate[:, None])

    # incident edges, node after node; a new neighbour drifted before v
    # when its cell is lower
    pos = g.raw.row_positions(node)
    erun, owner, nbr = run.repeat(deg), own.repeat(deg), indices[pos]
    nbr_cell = erun * n + nbr
    is_new = rows.activation_time[nbr_cell] == t
    earlier = is_new & (nbr_cell < owner)
    old = rows.live_features[nbr_cell]
    rows.live_features[own] = new_x
    seen = np.where(earlier[:, None], rows.live_features[nbr_cell], old)

    # one stacked gemv per degree d, (N_d, d, k) @ (N_d, k, 1)
    groups, a, e = [], 0, 0  # (node slice, edge slice, degree)
    for d, same in groupby(deg.tolist()):
        b = a + len(list(same))
        groups.append((a, b, e, e + (b - a) * d, d))
        a, e = b, e + (b - a) * d
    dots = np.empty(len(pos))
    for a, b, ea, eb, d in groups:
        np.matmul(seen[ea:eb].reshape(b - a, d, k), new_x[a:b, :, None],
                  out=dots[ea:eb].reshape(b - a, d, 1))
    new_w = np.clip((1.0 + dots) / 2.0, 0.0, 1.0)

    # weights are addressed flat, run * nnz + position. On an edge to a
    # later new node, v's value goes first to that node's side, where it is
    # the weight the later node sees; the later node's value is final
    edge, back = erun * nnz + pos, erun * nnz + rev[pos]
    later = is_new ^ earlier
    rows.live_weights.put(back[later], new_w[later])
    delta = new_w - rows.live_weights.take(edge)
    final = ~later
    rows.live_weights.put(edge[final], new_w[final])
    rows.live_weights.put(back[final], new_w[final])

    total = np.empty(len(node))
    for a, b, ea, eb, d in groups:
        total[a:b] = np.add.reduce(delta[ea:eb].reshape(b - a, d), axis=1)
    _ordered_add(rows.live_degree, (own, own, total), (owner, nbr_cell, delta))
    act = rows.active[nbr_cell]
    _ordered_add(rows.active_wsum, (owner, nbr_cell, delta), (owner[act],) * 2 + (delta[act],))


def _ordered_add(target: np.ndarray, first, then) -> None:
    """``target[cell] += value`` over the (key, cell, value) arrays of
    ``first`` and ``then``, one add at a time: key by key in ascending
    order, each key's ``first`` pairs before its ``then`` pairs, each part
    in its given order."""
    order = np.concatenate((first[0], then[0])).argsort(kind="stable")
    np.add.at(target, np.concatenate((first[1], then[1]))[order],
              np.concatenate((first[2], then[2]))[order])


def drift_update(x_v: np.ndarray, c, lam: float) -> np.ndarray:
    """Post-activation feature pull toward the propagation direction.

    Returns normalize((1-lam) x_v + lam c). The exactly antipodal lam=1/2
    case has no direction; the feature is kept unchanged and logged. The
    engine applies this map to a step's new nodes in bulk (``_drift_rows``).
    """
    vec = as_propagation(c).vec
    mixed = (1.0 - lam) * np.asarray(x_v, dtype=np.float64) + lam * vec
    norm = float(np.linalg.norm(mixed))
    if norm < 1e-12:
        logger.warning("drift update degenerate (antipodal feature); keeping feature")
        return np.asarray(x_v, dtype=np.float64).copy()
    return mixed / norm


def init_state(g: WeightedGraph, c, seeds, p: SimParams) -> CascadeState:
    """Fresh one-row state with the seed set active at time 0. Under drift it
    owns copies of the graph's degrees, features and weights for ``step`` to
    rewrite; otherwise it shares the graph's arrays."""
    seeds = check_seeds(g, seeds)
    state = _fresh_rows(g, _affinities(g, [_checked_propagation(g, c)]), own_live=p.drift > 0.0)
    _activate_rows(state, g, None, np.array(seeds, dtype=np.int64), 0, [len(seeds)])
    return state


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
    vecs = as_propagation(c).vec[None] if p.drift > 0.0 else None
    _, (new,) = _advance(state, g, p, [rng], vecs, state.step + 1)
    state.step += 1
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

    A propagation or seed list that is the same object as the previous
    run's is checked once for the stretch, and its runs share the checked
    value, so it must not change while ``runs`` is being read.
    """
    checked = []
    last_c = last_seeds = prop = checked_seeds = object()
    for c, seeds, rng_seed in runs:
        if seeds is not last_seeds:
            # an array holds a long seed list (a dp_policy probe's) in 8 bytes a seed
            last_seeds, checked_seeds = seeds, np.array(check_seeds(g, seeds), dtype=np.int64)
        if c is not last_c:
            last_c, prop = c, _checked_propagation(g, c)
        checked.append((prop, checked_seeds, check_rng_seed(rng_seed)))
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


def _generators(runs) -> list:
    """One generator per run, each ``PCG64`` on its seed's ``SeedSequence``:
    the stream ``default_rng(seed)`` gives. Runs that share a seed share
    the ``SeedSequence`` (its state words are a pure function of the seed),
    never a generator."""
    seqs = {}
    rngs = []
    for _, _, rng_seed in runs:
        seq = seqs.get(rng_seed)
        if seq is None:
            seq = seqs[rng_seed] = np.random.SeedSequence(rng_seed)
        rngs.append(np.random.Generator(np.random.PCG64(seq)))
    return rngs


def _run_chunk(g: WeightedGraph, runs, p: SimParams):
    """Step checked runs together until each converges or hits the cap.

    Returns their records in input order and the number of draws made.

    A lone run keeps its waves in a list and its cooling count in an int.
    A batch keeps them in arrays, compacted with the state's rows: each
    row's input position (``live``), the last step at which it gained
    adopters (``last``; its cooling count is ``t - last``) and its row of a
    waves matrix (``slot``). The matrix starts with one row per run and 32
    columns; when a step reaches its width, the live rows' waves move to a
    matrix twice as wide, so a few long runs do not widen the rows of runs
    already recorded. Rows are checked for their end only from the step the
    earliest of them could end, or at the cap.
    """
    n, R = g.n, len(runs)
    vecs = np.array([prop.vec for prop, _, _ in runs])
    rows = _fresh_rows(g, _affinities(g, [prop for prop, _, _ in runs]), own_live=p.drift > 0.0)
    sizes = [len(seeds) for _, seeds, _ in runs]
    _activate_rows(rows, g, np.arange(R).repeat(sizes),
                   np.concatenate([seeds for _, seeds, _ in runs]), 0, sizes)
    rngs = _generators(runs)
    max_steps = p.resolve_max_steps(n)
    records = [None] * R
    draws = t = 0

    def record(i, r, waves, hit_cap):
        """Record run i, held in row r, ended at step ``t``."""
        prop, seeds, rng_seed = runs[i]
        records[i] = CascadeRecord(
            params=p,
            seed_set=tuple(seeds.tolist()),
            propagation=prop,
            rng_seed=rng_seed,
            activation_time=rows.row("activation_time", r).copy(),
            new_per_step=waves,
            final_spread=int(rows.active_count[r]),
            converged_at=t,
            hit_cap=hit_cap,
            model="up",
        )

    if R == 1:
        # the batch's per-step array writes would slow solo runs by about 9%
        waves, stable = [sizes[0]], 0
        while stable < p.epsilon and t < max_steps:
            t += 1
            made, (k,) = _advance(rows, g, p, rngs, vecs, t)
            draws += made
            waves.append(k)
            stable = 0 if k else stable + 1
        record(0, 0, np.array(waves, dtype=np.int64), stable < p.epsilon)
        return records, draws

    live = slot = np.arange(R)
    last = np.zeros(R, dtype=np.int64)
    waves = np.empty((R, 32), dtype=np.int64)
    waves[:, 0] = sizes
    wake = p.epsilon  # the earliest step at which a row can end
    while True:
        t += 1
        made, new = _advance(rows, g, p, rngs, vecs, t)
        draws += made
        if t == waves.shape[1]:
            wider = np.empty((len(slot), 2 * t), dtype=np.int64)
            wider[:, :t] = waves[slot]
            waves, slot = wider, np.arange(len(slot))
        waves[slot, t] = new
        last[np.asarray(new) > 0] = t
        if t < wake and t < max_steps:
            continue
        done = (t - last >= p.epsilon) | (t >= max_steps)
        if done.any():
            for r in done.nonzero()[0].tolist():
                record(int(live[r]), r, waves[slot[r], :t + 1].copy(),
                       bool(t - last[r] < p.epsilon))
            if done.all():
                return records, draws
            keep = ~done
            live, slot, last, vecs = live[keep], slot[keep], last[keep], vecs[keep]
            rngs = [rng for rng, k in zip(rngs, keep.tolist()) if k]
            rows = rows.take(keep)
        wake = int(last.min()) + p.epsilon


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
