"""Closed-form incubation probabilities and cascade statistics.

The incubation scenario is a seed node attached to a clique through a single
bridge node: the bridge's per-step activation probability has the closed form
gamma * (alpha * (1 + dot) / 2 + beta / k), and its chance of activating
within a cooling window of epsilon steps is 1 - (1 - p)^epsilon. These two
formulas are validated against simulation elsewhere in the suite.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import stats

from .errors import InvalidParameter
from .netgen import FeatureMatrix, _build_weighted, _finish_raw
from .updyn import CascadeRecord, Propagation

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class IncubationScenario:
    """Bridge-into-clique configuration for the incubation formulas."""

    k: int
    dot: float
    alpha: float = 0.5
    beta: float = 0.5
    gamma: float = 1.0
    epsilon: int = 1

    def __post_init__(self):
        if self.k < 2:
            raise InvalidParameter("k", f"clique size must be >= 2, got {self.k}")
        if not -1.0 <= self.dot <= 1.0:
            raise InvalidParameter("dot", f"alignment must be in [-1,1], got {self.dot}")
        if self.epsilon < 1:
            raise InvalidParameter("epsilon", "cooling period must be >= 1")


def incubation_step_prob(s: IncubationScenario) -> float:
    """Per-step activation probability of the bridge node, global term ~ 0."""
    raw = s.gamma * (s.alpha * (1.0 + s.dot) / 2.0 + s.beta / s.k)
    if raw < 0.0 or raw > 1.0:
        logger.warning("incubation step probability %.4f outside [0,1]; clamped", raw)
    return float(np.clip(raw, 0.0, 1.0))


def incubation_eps_prob(s: IncubationScenario) -> float:
    """Probability the bridge activates within the epsilon-step window."""
    p = incubation_step_prob(s)
    return 1.0 - (1.0 - p) ** s.epsilon


def make_clique_scenario_graph(k: int, dot: float = 1.0):
    """Unweighted clique-plus-pendant fixture for incubation experiments.

    Nodes: 0 is the seed, 1 is the bridge, 2..k complete the clique over
    {1..k}. All edge weights are 1. Features are 2-d unit vectors chosen so
    the bridge's alignment with the returned propagation equals ``dot`` while
    the other clique members are antipodal to it (inert under pure affinity).
    Returns (graph, propagation).
    """
    if k < 2:
        raise InvalidParameter("k", f"clique size must be >= 2, got {k}")
    edges = [(0, 1)]
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            edges.append((i, j))
    raw = _finish_raw(k + 1, edges)

    rows = np.zeros((k + 1, 2))
    rows[0] = (1.0, 0.0)  # seed, aligned
    rows[1] = (dot, np.sqrt(max(0.0, 1.0 - dot * dot)))
    rows[2:] = (-1.0, 0.0)  # rest of the clique, anti-aligned
    feats = FeatureMatrix(rows=rows)
    weights = np.ones(len(raw.edges))
    graph = _build_weighted(raw, feats, weights, meta={"scenario": "clique", "k": k})
    return graph, Propagation(vec=np.array([1.0, 0.0]))


class RunOutcome(NamedTuple):
    """What one cascade came to."""

    viral: bool
    time_to_virality: int | None
    tipping: int | None


def run_outcome(new_per_step, final_spread: int, n: int,
                viral_fraction: float = 0.5) -> RunOutcome:
    """The per-run rules behind every virality, time-to-virality and tipping
    figure, in the experiment tables and the ``analyze`` report alike.

    A run is viral when its final spread reaches ``viral_fraction * n``. Its
    time to virality is the first step at which cumulative activations reach
    that threshold (step 0 counts the seed set), None if they never do. Its
    tipping step is the step of its largest adopter wave, earliest on ties,
    None when nothing beyond the seed set ever activated.
    """
    waves = np.asarray(new_per_step)
    return RunOutcome(
        viral=final_spread >= viral_fraction * n,
        time_to_virality=ttv_from_new_per_step(waves, n, viral_fraction),
        tipping=int(np.argmax(waves)) if waves[1:].sum() else None,
    )


def detect_virality(rec: CascadeRecord, viral_fraction: float = 0.5) -> bool:
    """Whether the run went viral, by the rule of ``run_outcome``."""
    return run_outcome(rec.new_per_step, rec.final_spread, rec.n, viral_fraction).viral


def ttv_from_new_per_step(new_per_step, n: int, viral_fraction: float = 0.5):
    cum = np.cumsum(np.asarray(new_per_step))
    hits = np.flatnonzero(cum >= viral_fraction * n)
    return int(hits[0]) if len(hits) else None


def time_to_virality(rec: CascadeRecord, viral_fraction: float = 0.5):
    """First step at which cumulative activations reach the viral threshold,
    or None if the run never gets there. Step 0 counts the seed set."""
    return ttv_from_new_per_step(rec.new_per_step, rec.n, viral_fraction)


def tipping_point(rec: CascadeRecord):
    """The run's tipping step, by the rule of ``run_outcome``."""
    return run_outcome(rec.new_per_step, rec.final_spread, rec.n).tipping


def spread_histogram(spreads, n: int, bins: int = 20):
    """Counts and edges of final spreads in ``bins`` equal bins over [0, n]."""
    return np.histogram(np.asarray(spreads), bins=bins, range=(0, n))


def _centre(values) -> dict:
    return {
        "count": len(values),
        "mean": float(np.mean(values)) if values else None,
        "median": float(np.median(values)) if values else None,
    }


def runs_report(records, degree) -> dict:
    """Spread distribution, virality frequency, tipping and time-to-virality
    figures of cascade records (``CascadeRecord.to_dict`` documents) on a
    graph with the given node degrees, and the Spearman correlation of mean
    seed degree with final spread (None where it is undefined)."""
    n = len(degree)
    spreads = np.array([r["final_spread"] for r in records])
    outcomes = [run_outcome(r["new_per_step"], r["final_spread"], n,
                            (r.get("params") or {}).get("viral_fraction", 0.5))
                for r in records]
    counts, edges = spread_histogram(spreads, n)
    seed_degrees = [float(np.mean([degree[s] for s in r["seed_set"]])) for r in records]
    try:
        rho = spearman(seed_degrees, spreads)
    except InvalidParameter:
        rho = None
    return {
        "n_runs": len(records),
        "n_nodes": n,
        "spread_mean": float(spreads.mean()),
        "spread_histogram": {
            "edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
        },
        "virality_frequency": float(np.mean([o.viral for o in outcomes])),
        "tipping": _centre([o.tipping for o in outcomes if o.tipping is not None]),
        "time_to_virality": _centre([o.time_to_virality for o in outcomes
                                     if o.time_to_virality is not None]),
        "spearman_seed_degree_spread": rho,
    }


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average ranks on ties."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) != len(ys):
        raise InvalidParameter("series", "inputs must have equal length")
    if len(xs) < 3:
        raise InvalidParameter("series", "need at least 3 points")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise InvalidParameter("series", "constant input; rank correlation undefined")
    rho, _ = stats.spearmanr(xs, ys)
    return float(rho)


def kendall_tau(xs, ys) -> float:
    """Kendall tau-b; NaN pairs are dropped first (e.g. empty-cell sweep means)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    keep = ~(np.isnan(xs) | np.isnan(ys))
    xs, ys = xs[keep], ys[keep]
    if len(xs) < 2:
        raise InvalidParameter("series", "need at least 2 finite points")
    tau, _ = stats.kendalltau(xs, ys)
    return float(tau)
