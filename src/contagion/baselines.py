"""Classical contagion baselines: independent cascade, linear threshold,
and k-complex contagion. All three share the CascadeRecord trajectory format
of the main dynamics so the analysis tooling applies unchanged."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .netgen import WeightedGraph
from .updyn import TIE_EPS, CascadeRecord, check_rng_seed, check_seeds

IC = "ic"
LT = "lt"
KCOMPLEX = "kcomplex"

UNIFORM = "uniform"
CONSTANT = "constant"


@dataclass(frozen=True)
class BaselineConfig:
    model: str
    ic_p: float = 0.1
    lt_dist: str = UNIFORM
    lt_theta: float | None = None
    k: int = 2

    def __post_init__(self):
        if self.model not in (IC, LT, KCOMPLEX):
            raise InvalidParameter("model", f"unknown baseline model {self.model!r}")
        if not 0.0 <= self.ic_p <= 1.0:
            raise InvalidParameter("p", f"must be in [0,1], got {self.ic_p}")
        if self.lt_dist not in (UNIFORM, CONSTANT):
            raise InvalidParameter("theta", f"unknown threshold distribution {self.lt_dist!r}")
        if self.lt_dist == CONSTANT:
            if self.lt_theta is None:
                raise InvalidParameter("theta", "constant distribution needs a theta value")
            if not np.isfinite(self.lt_theta):
                raise InvalidParameter("theta", f"must be finite, got {self.lt_theta}")
        elif self.lt_theta is not None and not 0.0 <= self.lt_theta <= 1.0:
            raise InvalidParameter("theta", f"must be in [0,1], got {self.lt_theta}")
        if self.k < 1:
            raise InvalidParameter("k", f"reinforcement count must be >= 1, got {self.k}")

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "ic_p": self.ic_p,
            "lt_dist": self.lt_dist,
            "lt_theta": self.lt_theta,
            "k": self.k,
        }


def _record(cfg, seeds, rng_seed, activation_time, new_per_step, steps):
    return CascadeRecord(
        params=cfg,
        seed_set=tuple(seeds),
        propagation=None,
        rng_seed=rng_seed,
        activation_time=activation_time,
        new_per_step=np.array(new_per_step, dtype=np.int64),
        # each node is counted once, in the wave that activated it
        final_spread=sum(new_per_step),
        converged_at=steps,
        hit_cap=False,
        model=cfg.model,
    )


def run_ic(g: WeightedGraph, seeds, p: float, rng_seed: int) -> CascadeRecord:
    """Independent cascade on unweighted edges.

    Every node activated in round t-1 gets one Bernoulli(p) attempt on each
    still-inactive neighbor in round t; the process stops when a round
    produces no activation. A round walks its (frontier node, neighbour)
    pairs with the frontier ascending and each row in CSR order, and takes
    the run's next uniform for each pair whose target is still inactive at
    that moment. A run costs O(attempts): uniforms come in doubling chunks,
    and the unused tail goes with the run's own generator.
    """
    cfg = BaselineConfig(model=IC, ic_p=p)
    seeds = check_seeds(g, seeds)
    rng_seed = check_rng_seed(rng_seed)
    rng = np.random.default_rng(rng_seed)
    raw = g.raw
    times = dict.fromkeys(seeds, 0)
    frontier = sorted(seeds)
    new_per_step = [len(seeds)]
    hits, used, chunk = [], 0, 16
    t = 0
    while frontier:
        t += 1
        newly = []
        for u in raw.indices[raw.row_positions(frontier)].tolist():
            if u in times:
                continue
            if used == len(hits):
                hits, used, chunk = (rng.random(chunk) < p).tolist(), 0, 2 * chunk
            if hits[used]:
                times[u] = t
                newly.append(u)
            used += 1
        frontier = sorted(newly)
        new_per_step.append(len(newly))
    activation_time = np.full(g.n, -1, dtype=np.int64)
    activation_time[list(times)] = list(times.values())
    return _record(cfg, seeds, rng_seed, activation_time, new_per_step, t)


def _threshold_run(g, seeds, weights, reached, cfg, rng_seed) -> CascadeRecord:
    """Synchronous threshold rounds until a fixpoint.

    Each round's new nodes add ``weights`` (aligned with the CSR entries) to
    their neighbours' tallies; the next round activates every inactive node
    whose tally passes ``reached``.
    """
    n = g.n
    activation_time = np.full(n, -1, dtype=np.int64)
    active = np.zeros(n, dtype=bool)
    tally = np.zeros(n, dtype=weights.dtype)
    new_per_step = []
    newly = np.asarray(seeds)
    t = 0
    while True:
        new_per_step.append(len(newly))
        if len(newly) == 0:
            break
        active[newly] = True
        activation_time[newly] = t
        pos = g.raw.row_positions(newly)
        np.add.at(tally, g.raw.indices[pos], weights[pos])
        t += 1
        newly = np.flatnonzero(~active & reached(tally))
    return _record(cfg, seeds, rng_seed, activation_time, new_per_step, t)


def run_lt(g: WeightedGraph, seeds, cfg: BaselineConfig, rng_seed: int) -> CascadeRecord:
    """Linear threshold with weight-density influence.

    Thresholds are drawn once per run (uniform or constant); node v activates
    when the active fraction of its weighted degree reaches theta_v. Rounds
    are synchronous until a fixpoint.
    """
    if cfg.model != LT:
        raise InvalidParameter("model", "config is not an LT config")
    seeds = check_seeds(g, seeds)
    rng_seed = check_rng_seed(rng_seed)
    rng = np.random.default_rng(rng_seed)
    n = g.n
    if cfg.lt_dist == UNIFORM:
        theta = rng.random(n)
    else:
        theta = np.full(n, float(cfg.lt_theta))

    # a node without tie mass feels no influence, as in updyn.step
    has_mass = g.weighted_degree > TIE_EPS

    def reached(active_wsum):
        influence = np.divide(active_wsum, g.weighted_degree, out=np.zeros(n), where=has_mass)
        return influence >= theta

    return _threshold_run(g, seeds, g.weights.data, reached, cfg, rng_seed)


def run_kcomplex(g: WeightedGraph, seeds, k: int) -> CascadeRecord:
    """Deterministic k-complex contagion: activate on >= k active neighbors."""
    cfg = BaselineConfig(model=KCOMPLEX, k=k)
    seeds = check_seeds(g, seeds)
    return _threshold_run(g, seeds, np.ones(len(g.raw.indices), dtype=np.int64),
                          lambda counts: counts >= k, cfg, None)
