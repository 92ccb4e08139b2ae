"""Unified command-line entry point.

Subcommands: netgen, simulate, baseline, analyze, experiment, learn,
learn-eval, optimize, plot. A ``--config file.json`` supplies defaults that
explicit flags override. Every command records a run manifest (every key it
resolved, input digests, outputs, timing) in its output directory.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import logging
import os
import sys
import time
from functools import partial, wraps
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .analytics import runs_report
from .baselines import BaselineConfig, run_ic, run_kcomplex, run_lt
from .errors import ConfigError, InvalidParameter
from .experiments import (
    ExperimentConfig,
    misaligned_vector,
    pool_map,
    rq1_spread_distribution,
    rq2_growth_curves,
    rq3_size_scaling,
    rq4_param_sweep,
    rq5_affinity_sweep,
)
from .learner import (
    InfluenceGraph,
    activation_state_accuracy,
    evaluate,
    fit,
    init_params,
    load_model,
    load_ratings_tsv,
    load_trust_tsv,
    reconstruct_traces,
    save_model,
    split_traces,
)
from .netgen import build_graph, load_graph, save_graph
from .optimizer import BeamConfig, beam_search, build_candidate_pool
from .plotting import render_hist_svg, render_line_svg
from .rng import derive_seed
from .updyn import Propagation, RunTally, SimParams, check_seeds, iter_cascades

# ---------------------------------------------------------------------------
# plumbing


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS library uses, by library file name.

    Dense eigendecompositions round differently with the thread count, so
    byte-identical graphs need the same BLAS library and thread count. Empty
    where the loaded libraries cannot be listed (no /proc/self/maps); a
    library that cannot be opened by its mapped path (replaced on disk, or a
    path with spaces) is left out.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return {}
    out = {}
    for path in paths:
        if not path.startswith("/"):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = int(fn())
                break
    return out


def write_csv(path, rows, columns=None) -> None:
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row.get(c) is None else str(row.get(c)) for c in columns])


def read_csv_table(path):
    """Headered numeric CSV -> (columns, rows of floats/None). Errors name the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidParameter("table", f"{path}: empty file")
        rows = []
        for lineno, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(header):
                raise InvalidParameter(
                    "table", f"{path}: line {lineno}: expected {len(header)} fields, got {len(raw)}"
                )
            parsed = []
            for cell in raw:
                if cell == "":
                    parsed.append(None)
                    continue
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise InvalidParameter(
                        "table", f"{path}: line {lineno}: non-numeric cell {cell!r}"
                    )
            rows.append(parsed)
    return header, rows


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"config: {err}")
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    return doc


def _merged(args, config: dict, key: str, default, kind=None):
    """Explicit flag wins, then config file, then the default.

    With ``kind`` (int, float or boolean) a value other than None is cast to
    it, and one that does not cast raises InvalidParameter naming ``key``.
    """
    val = getattr(args, key.replace("-", "_"), None)
    if val is None:
        val = config.get(key, default)
    return _typed(key, val, kind)


def boolean(val) -> bool:
    """Strict flag value: a JSON boolean, 0 or 1, or one of the strings
    true, false, 0, 1 (any case)."""
    if isinstance(val, bool):
        return val
    if isinstance(val, int) and val in (0, 1):
        return bool(val)
    if isinstance(val, str) and val.strip().lower() in ("true", "false", "1", "0"):
        return val.strip().lower() in ("true", "1")
    raise ValueError(f"not a boolean: {val!r}")


def _typed(key: str, val, kind):
    if kind is None or val is None:
        return val
    try:
        return kind(val)
    except (TypeError, ValueError):
        raise InvalidParameter(key, f"expected {kind.__name__}, got {val!r}") from None


def _parse_seeds(text) -> list:
    try:
        return [int(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError:
        raise InvalidParameter("seeds", f"could not parse seed list {text!r}")


class Options:
    """One command's settings and the files it reads.

    ``get`` resolves a key as its flag, else the ``--config`` value, else the
    default, and keeps the result for the manifest; ``path`` does the same
    for an input file and records it among the inputs.
    """

    def __init__(self, args):
        self.args = args
        self.file = _load_config_file(args.config)
        self.config = {}
        self.inputs = [] if args.config is None else [args.config]

    def get(self, key: str, default=None, kind=None):
        self.config[key] = val = _merged(self.args, self.file, key, default, kind)
        return val

    def path(self, key: str, required: bool = True):
        path = self.get(key)
        if path is None:
            if required:
                raise InvalidParameter(key, f"--{key} is required")
            return None
        self.inputs.append(path)
        return path


class Done(NamedTuple):
    """A command's result. ``outputs`` maps each output path to a JSON
    document (dict), JSON lines (list), text (str) or a writer called with
    the path; ``message`` is the line printed when everything is written."""

    outputs: dict
    message: str
    metrics: dict | None = None


def _write(path: Path, content) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if callable(content):
        content(path)
    elif isinstance(content, str):
        path.write_text(content)
    else:
        with open(path, "w") as fh:
            if isinstance(content, dict):
                json.dump(content, fh, indent=2)
                fh.write("\n")
            else:
                for row in content:
                    fh.write(json.dumps(row))
                    fh.write("\n")


def command(work):
    """Run ``work(opts) -> Done`` as a subcommand: time it, write its outputs
    and then ``manifest.json`` beside the first one, and print its message."""

    @wraps(work)
    def run(args) -> int:
        started = time.time()
        opts = Options(args)
        done = work(opts)
        outputs = [Path(p) for p in done.outputs]
        for path, content in zip(outputs, done.outputs.values()):
            _write(path, content)
        manifest = {
            "tool": "contagion",
            "version": __version__,
            "command": args.command,
            "config": opts.config,
            "inputs": {str(p): _sha256(p) for p in opts.inputs},
            "outputs": [str(p) for p in outputs],
            "duration_s": round(time.time() - started, 3),
        }
        if done.metrics is not None:
            manifest["metrics"] = done.metrics
        _write(outputs[0].parent / "manifest.json", manifest)
        print(done.message)
        return 0

    return run


def _sim_params_from(opts) -> SimParams:
    return SimParams(
        alpha=opts.get("alpha", 1.0 / 3.0, float),
        beta=opts.get("beta", 1.0 / 3.0, float),
        gamma=opts.get("gamma", 0.05, float),
        epsilon=opts.get("epsilon", 10, int),
        drift=opts.get("lambda", 0.0, float),
        max_steps=opts.get("max-steps", None, int),
        viral_fraction=opts.get("viral-fraction", 0.5, float),
        require_contact=not opts.get("spontaneous", False, boolean),
    )


def _jobs_from(opts) -> int:
    val = opts.get("jobs", None, int)
    if val is None:
        val = _typed("jobs", os.environ.get("CONTAGION_JOBS", 1), int)
    opts.config["jobs"] = jobs = max(1, val)
    return jobs


def _run_count(opts) -> int:
    n_runs = opts.get("runs", 1, int)
    if n_runs < 1:
        raise InvalidParameter("runs", f"need at least 1 run, got {n_runs}")
    return n_runs


def _read_prop_vector(path) -> np.ndarray:
    """Unit vector from a ``{"vector": [...]}`` JSON file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise InvalidParameter("prop", f"{path}: not valid JSON ({err})") from None
    if not isinstance(doc, dict) or "vector" not in doc:
        raise InvalidParameter("prop", f'{path}: expected an object with a "vector" list')
    return Propagation.from_vector(doc["vector"]).vec


def _counts(vals) -> bool:
    """True for a non-empty list of non-negative integers."""
    return (isinstance(vals, list) and len(vals) > 0
            and all(type(v) is int and v >= 0 for v in vals))


def _run_fault(rec, n: int):
    """Why a runs-file record cannot be analyzed on an n-node graph, or None."""
    if not isinstance(rec, dict):
        return "expected a JSON object"
    missing = [k for k in ("final_spread", "new_per_step", "seed_set", "activation_time")
               if k not in rec]
    if missing:
        return f"missing {', '.join(missing)}"
    seeds, params = rec["seed_set"], rec.get("params") or {}
    viral_fraction = params.get("viral_fraction", 0.5) if isinstance(params, dict) else None
    if not _counts([rec["final_spread"]]) or not _counts(rec["new_per_step"]):
        return "final_spread and new_per_step must be counts"
    if not _counts(seeds) or max(seeds) >= n:
        return f"seed_set {seeds!r} is not a list of node ids in [0, {n})"
    if not isinstance(rec["activation_time"], list) or len(rec["activation_time"]) != n:
        return f"activation_time does not have one entry per node of the {n}-node graph"
    if not isinstance(viral_fraction, (int, float)):
        return "params.viral_fraction must be a number"
    return None


def _read_runs(path, n: int) -> list:
    """Cascade records of a runs JSONL file; a line that is not a record of
    a run on an n-node graph raises InvalidParameter naming it."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    rec = json.loads(line)
                    fault = _run_fault(rec, n)
                except json.JSONDecodeError as err:
                    fault = f"not valid JSON ({err.msg})"
                if fault:
                    raise InvalidParameter("runs", f"{path}: line {lineno}: {fault}")
                records.append(rec)
    if not records:
        raise InvalidParameter("runs", f"{path}: no records")
    return records


def _record_dicts(g, runs, params):
    tally = RunTally()
    return [rec.to_dict() for rec in iter_cascades(g, runs, params, tally)], tally


# ---------------------------------------------------------------------------
# subcommands


@command
def cmd_netgen(opts) -> Done:
    n = opts.get("nodes", 1000, int)
    r = opts.get("attach", 2, int)
    k = opts.get("embed-dim", 10, int)
    seed = opts.get("seed", 0, int)
    out = opts.get("out", "graph.json")
    g = build_graph(n, r, k, seed)
    feats = g.features
    return Done({out: partial(save_graph, g)}, f"wrote {out}: n={n} edges={len(g.raw.edges)} k={k}",
                metrics={"solver": feats.solver, "max_residual": feats.max_residual,
                         "warnings": list(feats.warnings), "blas_threads": blas_threads()})


@command
def cmd_simulate(opts) -> Done:
    graph_path = opts.path("graph")
    out = opts.get("out", "runs.jsonl")
    seeds = _parse_seeds(opts.get("seeds", "0"))
    prop_mode = str(opts.get("prop", "self"))
    n_runs = _run_count(opts)
    master_seed = opts.get("seed", 0, int)
    params = _sim_params_from(opts)
    jobs = _jobs_from(opts)

    g = load_graph(graph_path)
    seeds = check_seeds(g, seeds)
    cosine = None
    if prop_mode == "self":
        vec = g.features.rows[seeds[0]].copy()
    elif prop_mode.startswith("affinity:"):
        try:
            cosine = float(prop_mode.split(":", 1)[1])
        except ValueError:
            raise InvalidParameter("prop", f"bad affinity cosine in {prop_mode!r}")
    else:
        opts.inputs.append(prop_mode)
        vec = _read_prop_vector(prop_mode)
    runs = []
    for i in range(n_runs):
        if cosine is not None:
            rng = np.random.default_rng(derive_seed(master_seed, "dir", i))
            vec = misaligned_vector(g.features.rows[seeds[0]], cosine, rng)
        runs.append((Propagation(vec=vec), seeds, derive_seed(master_seed, "run", i)))
    tally = RunTally()
    records = pool_map(_record_dicts, g, runs, (params,), jobs, tally)
    mean = np.mean([r["final_spread"] for r in records])
    return Done({out: records}, f"wrote {out}: {len(records)} runs, mean spread {mean:.1f}",
                metrics=tally.to_dict())


@command
def cmd_baseline(opts) -> Done:
    graph_path = opts.path("graph")
    model = str(opts.get("model"))
    out = opts.get("out", "runs.jsonl")
    seeds = _parse_seeds(opts.get("seeds", "0"))
    n_runs = _run_count(opts)
    master_seed = opts.get("seed", 0, int)
    p = opts.get("p", None, float)
    theta = opts.get("theta", None, float)
    k = opts.get("k", None, int)
    g = load_graph(graph_path)

    if theta is None:
        lt_cfg = BaselineConfig(model="lt", lt_dist="uniform")
    else:
        lt_cfg = BaselineConfig(model="lt", lt_dist="constant", lt_theta=theta)
    run = {"ic": lambda s: run_ic(g, seeds, 0.1 if p is None else p, s),
           "lt": lambda s: run_lt(g, seeds, lt_cfg, s),
           "kcomplex": lambda s: run_kcomplex(g, seeds, 2 if k is None else k)}.get(model)
    if run is None:
        raise InvalidParameter("model", f"unknown baseline model {model!r}")
    records = [run(derive_seed(master_seed, "run", i)).to_dict() for i in range(n_runs)]
    return Done({out: records}, f"wrote {out}: {len(records)} {model} runs",
                metrics={"cascades": len(records),
                         "steps": sum(r["converged_at"] for r in records),
                         "hit_cap_runs": sum(r["hit_cap"] for r in records)})


@command
def cmd_analyze(opts) -> Done:
    runs_path = opts.path("runs")
    graph_path = opts.path("graph")
    report_path = opts.get("report", "report.json")
    g = load_graph(graph_path)
    records = _read_runs(runs_path, g.n)
    report = runs_report(records, g.raw.degree)
    return Done({report_path: report}, f"wrote {report_path}: {len(records)} runs, "
                                       f"virality {report['virality_frequency']:.3f}")


def _experiment_outputs(rq: int, result: dict, out_dir: Path) -> dict:
    outputs = {out_dir / f"rq{rq}_{table}.csv": partial(write_csv, rows=rows)
               for table, rows in result.items()}
    if rq == 1:
        spreads = [row["spread"] for row in result["runs"]]
        outputs[out_dir / "rq1_spread_hist.svg"] = render_hist_svg(
            spreads, bins=20, title="Final spread distribution", x_label="final spread")
        per_node = sorted(result["per_node"], key=lambda r: (r["degree"], r["node"]))
        outputs[out_dir / "rq1_degree_vs_spread.svg"] = render_line_svg(
            [r["degree"] for r in per_node],
            {"mean spread": [r["mean_spread"] for r in per_node]},
            title="Seed degree vs mean spread", x_label="seed degree", y_label="mean spread")
    elif rq == 2 and result["series"]:
        steps = sorted({row["step"] for row in result["series"]})
        series = {}
        for segment in ("core", "intermediate", "periphery"):
            seg_rows = [r for r in result["series"] if r["segment"] == segment]
            if not seg_rows:
                continue
            ys = []
            for t in steps:
                vals = [r["cumulative"] for r in seg_rows if r["step"] == t]
                ys.append(float(np.mean(vals)) if vals else None)
            series[segment] = ys
        outputs[out_dir / "rq2_growth.svg"] = render_line_svg(
            steps, series, title="Cumulative adopters (viral runs)",
            x_label="step", y_label="cumulative")
    elif rq == 3:
        per_size = result["per_size"]
        outputs[out_dir / "rq3_scaling.svg"] = render_line_svg(
            [r["n"] for r in per_size],
            {"time to virality": [r["mean_time_to_virality"] for r in per_size],
             "diameter": [r["mean_diameter"] for r in per_size]},
            title="Time to virality and diameter vs network size", x_label="nodes")
    elif rq in (4, 5):
        grid = result["grid"]
        xcol = "value" if rq == 4 else "cosine"
        outputs[out_dir / f"rq{rq}_sweep.svg"] = render_line_svg(
            [r[xcol] for r in grid],
            {"virality frequency": [r["virality_frequency"] for r in grid],
             "mean time to virality": [r["mean_time_to_virality"] for r in grid]},
            title=f"RQ{rq} sweep", x_label=xcol)
    return outputs


@command
def cmd_experiment(opts) -> Done:
    cfg = ExperimentConfig.from_dict(opts.file) if opts.file else ExperimentConfig()
    opts.config.update(cfg.to_dict())
    rq = opts.get("rq", None, int)
    axis = opts.get("axis")
    out_dir = Path(opts.get("out-dir"))
    run = {1: rq1_spread_distribution, 2: rq2_growth_curves, 3: rq3_size_scaling,
           4: partial(rq4_param_sweep, axis=axis), 5: rq5_affinity_sweep}[rq]
    tally = RunTally()
    outputs = _experiment_outputs(rq, run(cfg, tally=tally), out_dir)
    return Done(outputs, f"wrote {len(outputs)} tables/plots to {out_dir}",
                metrics=tally.to_dict())


def _learner_inputs(opts):
    """(host graph, traces, whether node ids are the graph's integers)."""
    trust_path = opts.path("trust")
    ratings_path = opts.path("ratings")
    graph_path = opts.path("graph", required=False)
    trust = load_trust_tsv(trust_path)
    ratings = load_ratings_tsv(ratings_path)
    if graph_path is not None:
        try:
            trust = [(int(a), int(b)) for a, b in trust]
            ratings = [(int(u), p, t) for u, p, t in ratings]
        except ValueError:
            raise InvalidParameter("trust", "ids must be integers when --graph is given")
        host = InfluenceGraph.from_weighted_graph(load_graph(graph_path), name=str(graph_path))
    else:
        host = InfluenceGraph.from_trust_edges(trust, name=str(trust_path))
    traces = reconstruct_traces(trust, ratings)
    if not traces:
        raise InvalidParameter("ratings", "no usable cascade traces (need >= 2 raters per product)")
    return host, traces, graph_path is not None


@command
def cmd_learn(opts) -> Done:
    host, traces, _ = _learner_inputs(opts)
    form = str(opts.get("form", "sum"))
    steps = opts.get("steps", 200, int)
    lr = opts.get("lr", 0.01, float)
    master_seed = opts.get("seed", 0, int)
    augment = opts.get("augment", False, boolean)
    out = opts.get("out", "model.json")

    params = init_params(host, form, rng_seed=derive_seed(master_seed, "init"))
    result = fit(traces, host, params, steps=steps, lr=lr, augment=augment)
    return Done({out: partial(save_model, result.params)}, f"wrote {out}: {len(traces)} traces, "
                f"loss {result.losses[0]:.3f} -> {result.losses[-1]:.3f}")


@command
def cmd_learn_eval(opts) -> Done:
    model_path = opts.path("model")
    host, traces, int_ids = _learner_inputs(opts)
    test_fraction = opts.get("test-fraction", 0.2, float)
    split_seed = opts.get("split-seed", 0, int)
    out = opts.get("out", "eval.json")

    params = load_model(model_path, int_ids=int_ids)
    train, test = split_traces(traces, test_fraction, rng_seed=split_seed)
    report = evaluate(train, test, host, params)
    if test:
        acc, majority, counts = activation_state_accuracy(test, host, params)
        report["test_pooled"] = {"accuracy": acc, "majority_baseline": majority, **counts}
    return Done({out: report}, f"wrote {out}")


@command
def cmd_optimize(opts) -> Done:
    graph_path = opts.path("graph")
    v = opts.get("seed-node", 0, int)
    khop = opts.get("khop", 2, int)
    width = opts.get("beam", 5, int)
    rounds = opts.get("rounds", 5, int)
    perturb = opts.get("perturb", 0.1, float)
    sims = opts.get("sims", 200, int)
    top_deg = opts.get("top-deg", 10, int)
    core_targets = opts.get("core-targets", None, int)
    master_seed = opts.get("seed", 0, int)
    out = opts.get("out", "best.json")

    g = load_graph(graph_path)
    params = _sim_params_from(opts)
    pool = build_candidate_pool(g, v, khop, top_deg, core_targets=core_targets)
    cfg = BeamConfig(width=width, rounds=rounds, eps_perturb=perturb, sims=sims)
    result = beam_search(g, v, pool, cfg, params, master_seed)

    doc = {
        "seed_node": v,
        "vector": [float(x) for x in result.best_vec],
        "estimated_spread": result.best_score,
        "stderr": result.best_stderr,
        "trace": [float(x) for x in result.round_best],
        "evaluations": result.evaluations,
        "pool_size": len(pool),
    }
    return Done({out: doc}, f"wrote {out}: estimated spread {result.best_score:.1f} "
                            f"+- {result.best_stderr:.1f}",
                metrics={"evaluations": result.evaluations, "pool_size": len(pool)})


@command
def cmd_plot(opts) -> Done:
    table = opts.path("table")
    kind = str(opts.get("kind", "line"))
    out = opts.get("out", "plot.svg")
    bins = opts.get("bins", 10, int)

    header, rows = read_csv_table(table)
    if kind == "line":
        xs = [r[0] for r in rows]
        series = {
            header[j]: [r[j] for r in rows] for j in range(1, len(header))
        }
        svg = render_line_svg(xs, series, title=Path(table).stem, x_label=header[0] if header else "")
    elif kind == "hist":
        values = [r[0] for r in rows if r[0] is not None]
        svg = render_hist_svg(values, bins=bins, title=Path(table).stem,
                              x_label=header[0] if header else "")
    else:
        raise InvalidParameter("kind", f"unknown plot kind {kind!r}")
    return Done({out: svg}, f"wrote {out}")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contagion",
        description="Vector-propagation contagion simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config supplying defaults (flags win)")
        p.set_defaults(func=func)
        return p

    p = add("netgen", cmd_netgen, "generate a weighted PA network")
    p.add_argument("--nodes", type=int)
    p.add_argument("--attach", type=int)
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("simulate", cmd_simulate, "run propagation cascades")
    p.add_argument("--graph")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--epsilon", type=int)
    p.add_argument("--lambda", type=float, help="feature drift rate")
    p.add_argument("--max-steps", type=int)
    p.add_argument("--viral-fraction", type=float)
    p.add_argument("--spontaneous", action="store_const", const=True,
                   help="let every inactive node draw each step (no contact gate)")
    p.add_argument("--seeds", help="comma-separated seed node ids")
    p.add_argument("--prop", help="self | affinity:<c> | path to vector JSON")
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--out")

    p = add("baseline", cmd_baseline, "run IC / LT / k-complex baselines")
    p.add_argument("--model", choices=["ic", "lt", "kcomplex"])
    p.add_argument("--graph")
    p.add_argument("--p", type=float, help="IC activation probability")
    p.add_argument("--theta", type=float, help="LT constant threshold (omit for uniform)")
    p.add_argument("--k", type=int, help="k-complex reinforcement count")
    p.add_argument("--seeds")
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("analyze", cmd_analyze, "summarize a batch of cascade records")
    p.add_argument("--runs")
    p.add_argument("--graph")
    p.add_argument("--report")

    p = add("experiment", cmd_experiment, "run an RQ experiment from a config")
    p.add_argument("--rq", type=int, required=True, choices=[1, 2, 3, 4, 5])
    p.add_argument("--axis", choices=["alpha", "beta", "global"],
                   help="sweep axis for rq4")
    p.add_argument("--out-dir", required=True)

    p = add("learn", cmd_learn, "fit the threshold model on cascade traces")
    p.add_argument("--graph", help="optional host graph (integer node ids)")
    p.add_argument("--trust", help="TSV truster<TAB>trustee")
    p.add_argument("--ratings", help="TSV user<TAB>product<TAB>timestamp")
    p.add_argument("--form", choices=["sum", "mean"])
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--augment", action="store_const", const=True,
                   help="add prefix subcascades to the training set")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("learn-eval", cmd_learn_eval, "evaluate a fitted model")
    p.add_argument("--model")
    p.add_argument("--graph")
    p.add_argument("--trust")
    p.add_argument("--ratings")
    p.add_argument("--test-fraction", type=float)
    p.add_argument("--split-seed", type=int)
    p.add_argument("--out")

    p = add("optimize", cmd_optimize, "search for a spread-maximizing vector")
    p.add_argument("--graph")
    p.add_argument("--seed-node", type=int)
    p.add_argument("--khop", type=int)
    p.add_argument("--beam", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--perturb", type=float)
    p.add_argument("--sims", type=int)
    p.add_argument("--top-deg", type=int)
    p.add_argument("--core-targets", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--epsilon", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("plot", cmd_plot, "render a CSV table to SVG")
    p.add_argument("--table")
    p.add_argument("--kind", choices=["line", "hist"])
    p.add_argument("--bins", type=int)
    p.add_argument("--out")

    return parser


def dispatch(argv) -> int:
    """Parse and execute; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        return args.func(args)
    except (InvalidParameter, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: missing file: {err.filename}", file=sys.stderr)
        return 2


def main() -> None:
    logging.basicConfig(level=os.environ.get("CONTAGION_LOG", "WARNING"))
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
