"""Batch experiment harness: spread distributions, growth curves, size
scaling, parameter sweeps, and misalignment sweeps.

Every experiment is driven by an ExperimentConfig and a master seed; run
seeds are derived per (node, run index), so identical configs reproduce
byte-identical result tables. Sweeps pair their Monte Carlo draws across
grid values by reusing the same derived seeds.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from .analytics import kendall_tau, run_outcome, spearman, spread_histogram
from .errors import ConfigError, InvalidParameter
from .netgen import CORE, INTERMEDIATE, PERIPHERY, WeightedGraph, build_graph, diameter
from .rng import derive_seed
from .updyn import Propagation, RunTally, SimParams, _is_int, iter_cascades, self_propagation
from .updyn import run_cascade  # noqa: F401  re-exported

logger = logging.getLogger(__name__)

DEFAULT_SIZES = (250, 500, 1000, 2000, 4000)


def _check_ints(spec, where: str = "") -> None:
    """ConfigError unless each ``int`` field of the dataclass holds an integer."""
    for f in fields(spec):
        val = getattr(spec, f.name)
        if f.type in ("int", int) and not _is_int(val):
            raise ConfigError(f"{where}{f.name}: expected an integer, got {val!r}")


@dataclass(frozen=True)
class GraphSpec:
    n: int = 1000
    r: int = 2
    embed_dim: int = 10
    seed: int = 0

    def __post_init__(self):
        _check_ints(self, "graph: ")

    def to_dict(self) -> dict:
        return {"n": self.n, "r": self.r, "embed_dim": self.embed_dim, "seed": self.seed}


@dataclass(frozen=True)
class ExperimentConfig:
    graph: GraphSpec = field(default_factory=GraphSpec)
    params: SimParams = field(default_factory=SimParams)
    runs_per_node: int = 20
    node_selection: str = "all"  # all | core | intermediate | periphery | sample:M
    sweep_axis: str | None = None  # alpha | beta | global | seed_affinity | network_size
    sweep_values: tuple | None = None
    master_seed: int = 0
    graph_seeds: int = 5  # graph instances per size in the scaling study
    seeds_per_graph: int = 20  # core seeds sampled per scaling-study graph
    segment_samples: int = 5  # representative seeds per segment (growth curves)
    jobs: int = 1

    def __post_init__(self):
        _check_ints(self)
        for name in ("runs_per_node", "graph_seeds", "seeds_per_graph", "segment_samples", "jobs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if not isinstance(self.node_selection, str):
            raise ConfigError(f"node_selection: expected a string, got {self.node_selection!r}")
        _parse_selection(self.node_selection)
        if self.sweep_axis is not None and self.sweep_axis not in (
            "alpha", "beta", "global", "seed_affinity", "network_size"
        ):
            raise ConfigError(f"sweep_axis: unknown axis {self.sweep_axis!r}")

    def to_dict(self) -> dict:
        return {
            "graph": self.graph.to_dict(),
            "params": self.params.to_dict(),
            "runs_per_node": self.runs_per_node,
            "node_selection": self.node_selection,
            "sweep_axis": self.sweep_axis,
            "sweep_values": None if self.sweep_values is None else list(self.sweep_values),
            "master_seed": self.master_seed,
            "graph_seeds": self.graph_seeds,
            "seeds_per_graph": self.seeds_per_graph,
            "segment_samples": self.segment_samples,
            "jobs": self.jobs,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        try:
            graph = GraphSpec(**doc.pop("graph", {}))
        except TypeError as err:
            raise ConfigError(f"graph: {err}")
        params_doc = doc.pop("params", {})
        try:
            params = SimParams.from_dict(params_doc)
        except TypeError as err:
            raise ConfigError(f"params: {err}")
        sweep = doc.pop("sweep_values", None)
        if sweep is not None:
            if not isinstance(sweep, list) or not all(
                    isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
                    for x in sweep):
                raise ConfigError(f"sweep_values: expected a list of finite numbers, got {sweep!r}")
            sweep = tuple(sweep)
        try:
            return cls(graph=graph, params=params, sweep_values=sweep, **doc)
        except TypeError as err:
            raise ConfigError(str(err))


def _parse_selection(selection: str):
    if selection in ("all", CORE, INTERMEDIATE, PERIPHERY):
        return selection, None
    if selection.startswith("sample:"):
        try:
            m = int(selection.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"node_selection: bad sample count in {selection!r}")
        if m < 1:
            raise ConfigError("node_selection: sample count must be >= 1")
        return "sample", m
    raise ConfigError(f"node_selection: unknown mode {selection!r}")


def select_nodes(cfg: ExperimentConfig, g: WeightedGraph) -> np.ndarray:
    mode, m = _parse_selection(cfg.node_selection)
    if mode == "all":
        return np.arange(g.n)
    if mode in (CORE, INTERMEDIATE, PERIPHERY):
        return np.flatnonzero(g.segments == mode)
    rng = np.random.default_rng(derive_seed(cfg.master_seed, "node-sample"))
    return np.sort(rng.choice(g.n, size=min(m, g.n), replace=False))


@dataclass(frozen=True)
class RunSummary:
    node: int
    spread: int
    viral: bool
    time_to_virality: int | None
    tipping: int | None
    new_per_step: tuple | None = None


_WORKER = {}


def _worker_init(graph: WeightedGraph):
    _WORKER["graph"] = graph


def _reduce_runs(g: WeightedGraph, runs, params: SimParams, reduce):
    # reduced as each batch comes back, so at most one batch of records
    # (each with an n-length activation_time) is alive at a time
    tally = RunTally()
    return [reduce(rec) for rec in iter_cascades(g, runs, params, tally)], tally


def _worker_run(job):
    return _reduce_runs(_WORKER["graph"], *job)


def pool_map(g: WeightedGraph, runs, params: SimParams, reduce, jobs: int = 1,
             tally: RunTally | None = None) -> list:
    """``[reduce(rec) for rec in iter_cascades(g, runs, params)]``, where a
    run is ``(propagation, seeds, rng_seed)``.

    With ``jobs > 1`` and at least 4 runs, ``4 * jobs`` contiguous slices
    of the runs go to a process pool, so ``reduce`` must pickle. Outputs
    follow the input order regardless of worker count; ``tally``, when
    given, accumulates the slices' tallies.
    """
    runs = list(runs)
    if jobs <= 1 or len(runs) < 4:
        parts = [_reduce_runs(g, runs, params, reduce)]
    else:
        bounds = np.linspace(0, len(runs), min(len(runs), 4 * jobs) + 1).astype(int)
        work = [(runs[a:b], params, reduce) for a, b in zip(bounds[:-1], bounds[1:])]
        # under fork the pool starts all its workers at once
        workers = min(jobs, len(work), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                                 initargs=(g,)) as pool:
            parts = list(pool.map(_worker_run, work))
    outputs = []
    for part, part_tally in parts:
        outputs += part
        if tally is not None:
            tally.add(part_tally)
    return outputs


def _summarize(rec, keep_series) -> RunSummary:
    viral, ttv, tipping = run_outcome(rec.new_per_step, rec.final_spread, rec.n,
                                      rec.params.viral_fraction)
    return RunSummary(
        node=int(rec.seed_set[0]),
        spread=rec.final_spread,
        viral=viral,
        time_to_virality=ttv,
        tipping=tipping,
        new_per_step=tuple(int(x) for x in rec.new_per_step) if keep_series else None,
    )


def run_batch(g: WeightedGraph, runs, params: SimParams, jobs: int = 1,
              keep_series: bool = False, tally: RunTally | None = None) -> list:
    """One ``RunSummary`` per ``(propagation, seeds, rng_seed)`` run, in
    input order regardless of worker count."""
    return pool_map(g, runs, params, partial(_summarize, keep_series=keep_series), jobs, tally)


def _graph(cfg: ExperimentConfig, g: WeightedGraph | None) -> WeightedGraph:
    """``g``, or else the graph ``cfg.graph`` describes."""
    if g is None:
        g = build_graph(cfg.graph.n, cfg.graph.r, cfg.graph.embed_dim, cfg.graph.seed)
    return g


def _virality(summaries) -> dict:
    """The virality columns of a sweep row: n_runs, n_viral,
    virality_frequency and mean_time_to_virality."""
    ttvs = [s.time_to_virality for s in summaries if s.time_to_virality is not None]
    return {
        "n_runs": len(summaries),
        "n_viral": sum(s.viral for s in summaries),
        "virality_frequency": float(np.mean([s.viral for s in summaries])),
        "mean_time_to_virality": float(np.mean(ttvs)) if ttvs else None,
    }


def _self_runs(cfg: ExperimentConfig, g: WeightedGraph, nodes, *label):
    """Self-propagation runs, node-major: ``runs_per_node`` per node, run i
    of node v seeded ``derive_seed(master_seed, *label, v, i)``. A node's
    runs share one propagation and one seed list."""
    for node in nodes:
        node = int(node)
        prop, seeds = self_propagation(g, node), [node]
        for i in range(cfg.runs_per_node):
            yield prop, seeds, derive_seed(cfg.master_seed, *label, node, i)


def rq1_spread_distribution(cfg: ExperimentConfig, g: WeightedGraph | None = None, *,
                            tally: RunTally | None = None) -> dict:
    """Self-propagation spread distribution and degree correlation.

    Returns tables: per-run rows, per-node aggregates, a spread histogram,
    and a one-row summary with the band masses and the Spearman correlation
    between seed degree and mean spread.
    """
    g = _graph(cfg, g)
    nodes = select_nodes(cfg, g)
    summaries = run_batch(g, _self_runs(cfg, g, nodes, "rq1"), cfg.params, cfg.jobs,
                          tally=tally)

    degree = g.raw.degree
    runs_rows = []
    for j, s in enumerate(summaries):
        runs_rows.append({
            "node": s.node,
            "segment": str(g.segments[s.node]),
            "degree": int(degree[s.node]),
            "run_index": j % cfg.runs_per_node,
            "spread": s.spread,
            "viral": int(s.viral),
            "time_to_virality": s.time_to_virality,
            "tipping": s.tipping,
        })

    by_node = {int(node): [] for node in nodes}
    for s in summaries:
        by_node[s.node].append(s)
    per_node_rows = []
    mean_by_node = {}
    for node, group in by_node.items():
        mean_spread = float(np.mean([s.spread for s in group]))
        mean_by_node[node] = mean_spread
        per_node_rows.append({
            "node": node,
            "segment": str(g.segments[node]),
            "degree": int(degree[node]),
            "mean_spread": mean_spread,
            "viral_frequency": float(np.mean([s.viral for s in group])),
        })

    spreads = np.array([s.spread for s in summaries])
    counts, edges = spread_histogram(spreads, g.n)
    hist_rows = [
        {"bin_lo": float(edges[i]), "bin_hi": float(edges[i + 1]), "count": int(c)}
        for i, c in enumerate(counts)
    ]

    try:
        rho = spearman(
            [degree[node] for node in mean_by_node],
            [mean_by_node[node] for node in mean_by_node],
        )
    except InvalidParameter:
        logger.warning("rq1: degenerate inputs, degree correlation undefined")
        rho = None
    n = g.n
    summary = {
        "n_runs": len(summaries),
        "spearman_degree_mean_spread": rho,
        "frac_below_010n": float(np.mean(spreads < 0.1 * n)),
        "frac_above_050n": float(np.mean(spreads > 0.5 * n)),
        "frac_middle_band": float(np.mean((spreads >= 0.2 * n) & (spreads <= 0.8 * n))),
    }
    return {
        "runs": runs_rows,
        "per_node": per_node_rows,
        "histogram": hist_rows,
        "summary": [summary],
    }


def rq2_growth_curves(cfg: ExperimentConfig, g: WeightedGraph | None = None, *,
                      tally: RunTally | None = None) -> dict:
    """Adoption time series of viral runs from representative segment seeds."""
    g = _graph(cfg, g)
    rng = np.random.default_rng(derive_seed(cfg.master_seed, "rq2-pick"))
    picks = []
    for segment in (CORE, INTERMEDIATE, PERIPHERY):
        members = np.flatnonzero(g.segments == segment)
        take = min(cfg.segment_samples, len(members))
        picks.extend(int(x) for x in rng.choice(members, size=take, replace=False))

    summaries = run_batch(
        g, _self_runs(cfg, g, picks, "rq2"), cfg.params, cfg.jobs, keep_series=True,
        tally=tally,
    )
    # runs are node-major, runs_per_node to a node
    viral = [(j % cfg.runs_per_node, s) for j, s in enumerate(summaries) if s.viral]
    if not viral:
        logger.warning("rq2: no viral runs under this configuration")

    series_rows = []
    tipping_rows = []
    for run_index, s in viral:
        segment = str(g.segments[s.node])
        cumulative = 0
        for t, new in enumerate(s.new_per_step):
            cumulative += new
            series_rows.append({
                "segment": segment,
                "node": s.node,
                "run_index": run_index,
                "step": t,
                "new": new,
                "cumulative": cumulative,
            })
        tipping_rows.append({
            "segment": segment,
            "node": s.node,
            "run_index": run_index,
            "tipping": s.tipping,
            "time_to_virality": s.time_to_virality,
            "spread": s.spread,
        })
    summary = [{
        "n_runs": len(summaries),
        "n_viral": len(viral),
        "max_wave_after_step1_frac": float(np.mean([(s.tipping or 0) > 1 for _, s in viral]))
        if viral else None,
    }]
    return {"series": series_rows, "tipping": tipping_rows, "summary": summary}


def rq3_size_scaling(cfg: ExperimentConfig, *, tally: RunTally | None = None) -> dict:
    """Time to virality and diameter as network size grows."""
    sizes = cfg.sweep_values or DEFAULT_SIZES
    if not all(float(x).is_integer() for x in sizes):
        raise ConfigError(f"sweep_values: network sizes must be whole numbers, got {list(sizes)}")
    sizes = tuple(int(x) for x in sizes)
    rows = []
    for n in sizes:
        for gi in range(cfg.graph_seeds):
            g = build_graph(n, cfg.graph.r, cfg.graph.embed_dim,
                            derive_seed(cfg.master_seed, "rq3-graph", n, gi))
            diam = diameter(g.raw)
            core_nodes = np.flatnonzero(g.segments == CORE)
            rng = np.random.default_rng(derive_seed(cfg.master_seed, "rq3-pick", n, gi))
            take = min(cfg.seeds_per_graph, len(core_nodes))
            seeds = rng.choice(core_nodes, size=take, replace=False)
            summaries = run_batch(g, _self_runs(cfg, g, seeds, "rq3", n, gi), cfg.params,
                                  cfg.jobs, tally=tally)
            ttvs = [s.time_to_virality for s in summaries if s.time_to_virality is not None]
            rows.append({
                "n": n,
                "graph_seed_index": gi,
                "diameter": diam,
                "n_runs": len(summaries),
                "n_viral": len(ttvs),
                "mean_time_to_virality": float(np.mean(ttvs)) if ttvs else None,
            })

    per_size = []
    for n in sizes:
        sub = [r for r in rows if r["n"] == n]
        times = [r["mean_time_to_virality"] for r in sub if r["mean_time_to_virality"] is not None]
        per_size.append({
            "n": n,
            "mean_time_to_virality": float(np.mean(times)) if times else None,
            "mean_diameter": float(np.mean([r["diameter"] for r in sub])),
        })
    finite = [r for r in per_size if r["mean_time_to_virality"] is not None]
    summary = {}
    if len(finite) >= 2:
        times = [r["mean_time_to_virality"] for r in finite]
        summary["time_ratio_largest_smallest"] = times[-1] / times[0]
        if len(finite) >= 3:
            summary["spearman_time_diameter"] = spearman(
                times, [r["mean_diameter"] for r in finite]
            )
    return {"graphs": rows, "per_size": per_size, "summary": [summary] if summary else []}


def sweep_weights(axis: str, value: float) -> tuple[float, float]:
    """Couple the two unswept weights so they split the leftover mass evenly."""
    if axis == "alpha":
        alpha, beta = value, (1.0 - value) / 2.0
    elif axis == "beta":
        alpha, beta = (1.0 - value) / 2.0, value
    elif axis == "global":
        alpha = beta = (1.0 - value) / 2.0
    else:
        raise ConfigError(f"sweep axis must be alpha|beta|global, got {axis!r}")
    return alpha, beta


def rq4_param_sweep(cfg: ExperimentConfig, axis: str | None = None,
                    g: WeightedGraph | None = None, *, tally: RunTally | None = None) -> dict:
    """Virality frequency and time to virality across a weight grid."""
    axis = axis or cfg.sweep_axis
    if axis is None:
        raise ConfigError("sweep_axis: required for the parameter sweep (alpha|beta|global)")
    grid = cfg.sweep_values or tuple(np.linspace(0.1, 0.9, 9))
    for value in grid:
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"sweep value {value} outside [0, 1]")
    g = _graph(cfg, g)
    nodes = select_nodes(cfg, g)

    rows = []
    for value in grid:
        alpha, beta = sweep_weights(axis, float(value))
        params = replace(cfg.params, alpha=alpha, beta=beta)
        # same derived seeds at every grid value: paired comparisons
        summaries = run_batch(g, _self_runs(cfg, g, nodes, "rq4"), params, cfg.jobs,
                              tally=tally)
        rows.append({
            "value": float(value),
            "alpha": alpha,
            "beta": beta,
            "global_weight": 1.0 - alpha - beta,
            **_virality(summaries),
        })
    freq = [r["virality_frequency"] for r in rows]
    times = [np.nan if r["mean_time_to_virality"] is None else r["mean_time_to_virality"]
             for r in rows]
    values = [r["value"] for r in rows]

    def tau_or_none(ys):
        try:
            return kendall_tau(values, ys)
        except InvalidParameter:
            return None

    summary = {
        "axis": axis,
        "kendall_tau_frequency": tau_or_none(freq),
        "kendall_tau_time": tau_or_none(times),
    }
    return {"grid": rows, "summary": [summary]}


def misaligned_vector(x_seed: np.ndarray, cosine: float, rng: np.random.Generator) -> np.ndarray:
    """Unit vector at a prescribed cosine to the seed feature.

    Built as c * x + sqrt(1 - c^2) * u with u a random unit vector from the
    orthogonal complement of x; at |c| = 1 the result is exactly +-x.
    """
    c = float(cosine)
    if abs(c) > 1.0:
        raise ConfigError(f"cosine {c} outside [-1, 1]")
    if abs(c) == 1.0:
        return np.sign(c) * x_seed
    z = rng.standard_normal(len(x_seed))
    z -= (z @ x_seed) * x_seed
    norm = float(np.linalg.norm(z))
    if norm < 1e-12:  # pathological draw; retry deterministically
        return misaligned_vector(x_seed, cosine, rng)
    u = z / norm
    out = c * x_seed + np.sqrt(1.0 - c * c) * u
    return out / np.linalg.norm(out)


def rq5_affinity_sweep(cfg: ExperimentConfig, g: WeightedGraph | None = None, *,
                       tally: RunTally | None = None) -> dict:
    """Virality against initial propagation-seed alignment.

    For every (node, run) the orthogonal direction and the cascade seed are
    drawn once and shared across the cosine grid, pairing the comparisons.
    The runs of every cosine go to one batch, so the grid values' long
    viral runs share lockstep steps; each value's summaries are its slice.
    """
    grid = cfg.sweep_values or tuple(np.linspace(-0.9, 0.9, 9))
    for value in grid:
        if abs(value) > 1.0:
            raise ConfigError(f"cosine {value} outside [-1, 1]")
    g = _graph(cfg, g)
    nodes = select_nodes(cfg, g)

    seed_lists = [[int(node)] for node in nodes]
    runs, max_errs = [], []
    for value in grid:
        dot_errs = []
        for seeds in seed_lists:
            node = seeds[0]
            x = g.features.rows[node]
            for i in range(cfg.runs_per_node):
                dir_rng = np.random.default_rng(derive_seed(cfg.master_seed, "rq5-dir", node, i))
                vec = misaligned_vector(x, float(value), dir_rng)
                dot_errs.append(abs(float(vec @ x) - float(value)))
                runs.append((Propagation(vec=vec), seeds,
                             derive_seed(cfg.master_seed, "rq5", node, i)))
        max_errs.append(float(np.max(dot_errs)))
    summaries = run_batch(g, runs, cfg.params, cfg.jobs, tally=tally)
    size = len(runs) // len(grid)
    rows = [{
        "cosine": float(value),
        **_virality(summaries[j * size:(j + 1) * size]),
        "max_cosine_error": err,
    } for j, (value, err) in enumerate(zip(grid, max_errs))]
    return {"grid": rows, "summary": [{
        "n_grid": len(rows),
        "frequency_span": rows[-1]["virality_frequency"] - rows[0]["virality_frequency"],
    }]}
