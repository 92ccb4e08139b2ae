"""Classical contagion baselines: independent cascade, linear threshold,
and k-complex contagion. All three share the CascadeRecord trajectory format
of the main dynamics so the analysis tooling applies unchanged."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .netgen import WeightedGraph
from .updyn import CascadeRecord

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


def _check_seeds(g: WeightedGraph, seeds) -> list:
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise InvalidParameter("seeds", "seed set must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise InvalidParameter("seeds", "seed ids must be distinct")
    if min(seeds) < 0 or max(seeds) >= g.n:
        raise InvalidParameter("seeds", f"seed ids must lie in [0, {g.n})")
    return seeds


def _record(g, cfg, seeds, rng_seed, activation_time, new_per_step, steps, model):
    return CascadeRecord(
        params=cfg,
        seed_set=tuple(seeds),
        propagation=None,
        rng_seed=rng_seed,
        activation_time=activation_time,
        new_per_step=np.array(new_per_step, dtype=np.int64),
        final_spread=int(np.sum(activation_time >= 0)),
        converged_at=steps,
        hit_cap=False,
        model=model,
    )


def run_ic(g: WeightedGraph, seeds, p: float, rng_seed: int) -> CascadeRecord:
    """Independent cascade on unweighted edges.

    Every node activated in round t-1 gets one Bernoulli(p) attempt on each
    still-inactive neighbor in round t; the process stops when a round
    produces no activation.
    """
    cfg = BaselineConfig(model=IC, ic_p=p)
    seeds = _check_seeds(g, seeds)
    rng = np.random.default_rng(int(rng_seed))
    n = g.n
    activation_time = np.full(n, -1, dtype=np.int64)
    activation_time[seeds] = 0
    frontier = list(seeds)
    new_per_step = [len(seeds)]
    t = 0
    while frontier:
        t += 1
        newly = []
        for v in sorted(frontier):
            for w in g.raw.neighbors(v):
                w = int(w)
                if activation_time[w] >= 0:
                    continue
                if rng.random() < p:
                    activation_time[w] = t
                    newly.append(w)
        # dedupe while preserving the discovery order is irrelevant here:
        # activation_time already guards against double activation
        frontier = newly
        new_per_step.append(len(newly))
    return _record(g, cfg, seeds, int(rng_seed), activation_time, new_per_step, t, IC)


def run_lt(g: WeightedGraph, seeds, cfg: BaselineConfig, rng_seed: int) -> CascadeRecord:
    """Linear threshold with weight-density influence.

    Thresholds are drawn once per run (uniform or constant); node v activates
    when the active fraction of its weighted degree reaches theta_v. Rounds
    are synchronous until a fixpoint.
    """
    if cfg.model != LT:
        raise InvalidParameter("model", "config is not an LT config")
    seeds = _check_seeds(g, seeds)
    rng = np.random.default_rng(int(rng_seed))
    n = g.n
    if cfg.lt_dist == UNIFORM:
        theta = rng.random(n)
    else:
        theta = np.full(n, float(cfg.lt_theta))

    activation_time = np.full(n, -1, dtype=np.int64)
    active = np.zeros(n, dtype=bool)
    active_wsum = np.zeros(n)
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
        np.add.at(active_wsum, g.raw.indices[pos], g.weights.data[pos])
        t += 1
        influence = active_wsum / g.weighted_degree
        newly = np.flatnonzero(~active & (influence >= theta))
    return _record(g, cfg, seeds, int(rng_seed), activation_time, new_per_step, t, LT)


def run_kcomplex(g: WeightedGraph, seeds, k: int) -> CascadeRecord:
    """Deterministic k-complex contagion: activate on >= k active neighbors."""
    cfg = BaselineConfig(model=KCOMPLEX, k=k)
    seeds = _check_seeds(g, seeds)
    n = g.n
    activation_time = np.full(n, -1, dtype=np.int64)
    active = np.zeros(n, dtype=bool)
    counts = np.zeros(n, dtype=np.int64)
    new_per_step = []
    newly = np.asarray(seeds)
    t = 0
    while True:
        new_per_step.append(len(newly))
        if len(newly) == 0:
            break
        active[newly] = True
        activation_time[newly] = t
        np.add.at(counts, g.raw.indices[g.raw.row_positions(newly)], 1)
        t += 1
        newly = np.flatnonzero(~active & (counts >= k))
    return _record(g, cfg, seeds, None, activation_time, new_per_step, t, KCOMPLEX)
