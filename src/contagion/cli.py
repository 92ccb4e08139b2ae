"""Unified command-line entry point.

Subcommands: netgen, simulate, baseline, analyze, experiment, learn,
learn-eval, optimize, plot. A ``--config file.json`` supplies defaults that
explicit flags override. Every command records a run manifest (resolved
configuration, input digests, outputs, timing) in its output directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import spearman, ttv_from_new_per_step
from .baselines import BaselineConfig, run_ic, run_kcomplex, run_lt
from .errors import ConfigError, InvalidParameter
from .experiments import (
    ExperimentConfig,
    misaligned_vector,
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
from .updyn import Propagation, SimParams, run_cascade

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# plumbing


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command: str, config: dict, master_seed,
                   inputs, outputs, started: float, metrics: dict | None = None) -> None:
    doc = {
        "tool": "contagion",
        "version": __version__,
        "command": command,
        "config": config,
        "master_seed": master_seed,
        "inputs": {str(p): _sha256(p) for p in inputs if p and os.path.exists(p)},
        "outputs": [str(o) for o in outputs],
        "duration_s": round(time.time() - started, 3),
    }
    if metrics is not None:
        doc["metrics"] = metrics
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_csv(path, rows, columns=None) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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

    With ``kind`` (int or float) a value other than None is cast to it, and
    one that does not cast raises InvalidParameter naming ``key``.
    """
    val = getattr(args, key.replace("-", "_"), None)
    if val is None:
        val = config.get(key, default)
    return _typed(key, val, kind)


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


def _sim_params_from(args, config) -> SimParams:
    return SimParams(
        alpha=_merged(args, config, "alpha", 1.0 / 3.0, float),
        beta=_merged(args, config, "beta", 1.0 / 3.0, float),
        gamma=_merged(args, config, "gamma", 0.05, float),
        epsilon=_merged(args, config, "epsilon", 10, int),
        drift=_merged(args, config, "lambda", 0.0, float),
        max_steps=_merged(args, config, "max-steps", None, int),
        viral_fraction=_merged(args, config, "viral-fraction", 0.5, float),
        require_contact=not bool(_merged(args, config, "spontaneous", False)),
    )


def _jobs_from(args, config) -> int:
    val = _merged(args, config, "jobs", None, int)
    if val is None:
        val = _typed("jobs", os.environ.get("CONTAGION_JOBS", 1), int)
    return max(1, val)


# ---------------------------------------------------------------------------
# simulate workers (module level for pickling)

_SIM = {}


def _sim_init(graph, params):
    _SIM["graph"] = graph
    _SIM["params"] = params


def _sim_run(task):
    seeds, vec, run_seed = task
    rec = run_cascade(_SIM["graph"], Propagation(vec=np.asarray(vec)), seeds,
                      _SIM["params"], run_seed)
    return rec.to_dict()


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


def _simulate_records(g, seeds, prop_mode, params, master_seed, n_runs, jobs):
    cosine = None
    if prop_mode == "self":
        vec = g.features.rows[seeds[0]].copy()
    elif prop_mode.startswith("affinity:"):
        try:
            cosine = float(prop_mode.split(":", 1)[1])
        except ValueError:
            raise InvalidParameter("prop", f"bad affinity cosine in {prop_mode!r}")
    else:
        vec = _read_prop_vector(prop_mode)
    tasks = []
    for i in range(n_runs):
        run_seed = derive_seed(master_seed, "run", i)
        if cosine is not None:
            rng = np.random.default_rng(derive_seed(master_seed, "dir", i))
            vec = misaligned_vector(g.features.rows[seeds[0]], cosine, rng)
        tasks.append((seeds, vec, run_seed))
    if jobs <= 1 or len(tasks) < 4:
        _sim_init(g, params)
        return [_sim_run(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs, initializer=_sim_init,
                             initargs=(g, params)) as pool:
        return list(pool.map(_sim_run, tasks))


# ---------------------------------------------------------------------------
# subcommands


def cmd_netgen(args) -> int:
    started = time.time()
    config = _load_config_file(args.config)
    n = _merged(args, config, "nodes", 1000, int)
    r = _merged(args, config, "attach", 2, int)
    k = _merged(args, config, "embed-dim", 10, int)
    seed = _merged(args, config, "seed", 0, int)
    out = _merged(args, config, "out", "graph.json")
    g = build_graph(n, r, k, seed)
    save_graph(g, out)
    feats = g.features
    write_manifest(Path(out).parent, "netgen",
                   {"nodes": n, "attach": r, "embed_dim": k, "seed": seed, "out": str(out)},
                   seed, [args.config], [out], started,
                   metrics={"solver": feats.solver, "max_residual": feats.max_residual,
                            "warnings": list(feats.warnings)})
    print(f"wrote {out}: n={n} edges={len(g.raw.edges)} k={k}")
    return 0


def cmd_simulate(args) -> int:
    started = time.time()
    config = _load_config_file(args.config)
    graph_path = _merged(args, config, "graph", None)
    if graph_path is None:
        raise InvalidParameter("graph", "a graph file is required")
    out = _merged(args, config, "out", "runs.jsonl")
    seeds = _parse_seeds(_merged(args, config, "seeds", "0"))
    prop_mode = str(_merged(args, config, "prop", "self"))
    n_runs = _merged(args, config, "runs", 1, int)
    master_seed = _merged(args, config, "seed", 0, int)
    params = _sim_params_from(args, config)
    jobs = _jobs_from(args, config)

    g = load_graph(graph_path)
    records = _simulate_records(g, seeds, prop_mode, params, master_seed, n_runs, jobs)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec))
            fh.write("\n")
    write_manifest(Path(out).parent, "simulate",
                   {"graph": str(graph_path), "seeds": seeds, "prop": prop_mode,
                    "runs": n_runs, "params": params.to_dict(), "jobs": jobs,
                    "out": str(out)},
                   master_seed, [args.config, graph_path], [out], started)
    spreads = [r["final_spread"] for r in records]
    print(f"wrote {out}: {len(records)} runs, mean spread {np.mean(spreads):.1f}")
    return 0


def cmd_baseline(args) -> int:
    started = time.time()
    config = _load_config_file(args.config)
    graph_path = _merged(args, config, "graph", None)
    if graph_path is None:
        raise InvalidParameter("graph", "a graph file is required")
    model = str(_merged(args, config, "model", None))
    out = _merged(args, config, "out", "runs.jsonl")
    seeds = _parse_seeds(_merged(args, config, "seeds", "0"))
    n_runs = _merged(args, config, "runs", 1, int)
    master_seed = _merged(args, config, "seed", 0, int)
    p = _merged(args, config, "p", None, float)
    theta = _merged(args, config, "theta", None, float)
    k = _merged(args, config, "k", None, int)
    g = load_graph(graph_path)

    records = []
    for i in range(n_runs):
        run_seed = derive_seed(master_seed, "run", i)
        if model == "ic":
            rec = run_ic(g, seeds, 0.1 if p is None else p, run_seed)
        elif model == "lt":
            if theta is None:
                cfg = BaselineConfig(model="lt", lt_dist="uniform")
            else:
                cfg = BaselineConfig(model="lt", lt_dist="constant", lt_theta=theta)
            rec = run_lt(g, seeds, cfg, run_seed)
        elif model == "kcomplex":
            rec = run_kcomplex(g, seeds, 2 if k is None else k)
        else:
            raise InvalidParameter("model", f"unknown baseline model {model!r}")
        records.append(rec.to_dict())

    Path(out).parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec))
            fh.write("\n")
    write_manifest(Path(out).parent, "baseline",
                   {"graph": str(graph_path), "model": model, "p": p, "theta": theta,
                    "k": k, "seeds": seeds, "runs": n_runs, "out": str(out)},
                   master_seed, [args.config, graph_path], [out], started)
    print(f"wrote {out}: {len(records)} {model} runs")
    return 0


def cmd_analyze(args) -> int:
    started = time.time()
    config = _load_config_file(args.config)
    runs_path = _merged(args, config, "runs", None)
    graph_path = _merged(args, config, "graph", None)
    report_path = _merged(args, config, "report", "report.json")
    if runs_path is None or graph_path is None:
        raise InvalidParameter("runs", "both --runs and --graph are required")
    g = load_graph(graph_path)

    records = []
    with open(runs_path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    if not records:
        raise InvalidParameter("runs", f"{runs_path}: no records")

    n = g.n
    spreads = np.array([r["final_spread"] for r in records])
    viral_fracs = [
        (r.get("params") or {}).get("viral_fraction", 0.5) for r in records
    ]
    viral = np.array([s >= vf * n for s, vf in zip(spreads, viral_fracs)])
    counts, edges = np.histogram(spreads, bins=20, range=(0, n))

    tippings = []
    ttvs = []
    for r, vf in zip(records, viral_fracs):
        waves = np.array(r["new_per_step"])
        if waves[1:].sum() > 0:
            tippings.append(int(np.argmax(waves)))
        ttv = ttv_from_new_per_step(waves, n, vf)
        if ttv is not None:
            ttvs.append(ttv)

    seed_degrees = [float(np.mean([g.raw.degree[s] for s in r["seed_set"]])) for r in records]
    try:
        rho = spearman(seed_degrees, spreads)
    except InvalidParameter:
        rho = None

    report = {
        "n_runs": len(records),
        "n_nodes": n,
        "spread_mean": float(spreads.mean()),
        "spread_histogram": {
            "edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
        },
        "virality_frequency": float(viral.mean()),
        "tipping": {
            "count": len(tippings),
            "mean": float(np.mean(tippings)) if tippings else None,
            "median": float(np.median(tippings)) if tippings else None,
        },
        "time_to_virality": {
            "count": len(ttvs),
            "mean": float(np.mean(ttvs)) if ttvs else None,
            "median": float(np.median(ttvs)) if ttvs else None,
        },
        "spearman_seed_degree_spread": rho,
    }
    Path(report_path).parent.mkdir(parents=True, exist_ok=True)
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    write_manifest(Path(report_path).parent, "analyze",
                   {"runs": str(runs_path), "graph": str(graph_path),
                    "report": str(report_path)},
                   None, [args.config, runs_path, graph_path], [report_path], started)
    print(f"wrote {report_path}: {len(records)} runs, virality {report['virality_frequency']:.3f}")
    return 0


def _experiment_outputs(rq: int, result: dict, out_dir: Path) -> list:
    outputs = []
    for table, rows in result.items():
        path = out_dir / f"rq{rq}_{table}.csv"
        write_csv(path, rows)
        outputs.append(path)

    def save_svg(name, text):
        path = out_dir / name
        path.write_text(text)
        outputs.append(path)

    if rq == 1:
        spreads = [row["spread"] for row in result["runs"]]
        save_svg("rq1_spread_hist.svg",
                 render_hist_svg(spreads, bins=20, title="Final spread distribution",
                                 x_label="final spread"))
        per_node = sorted(result["per_node"], key=lambda r: (r["degree"], r["node"]))
        save_svg("rq1_degree_vs_spread.svg",
                 render_line_svg([r["degree"] for r in per_node],
                                 {"mean spread": [r["mean_spread"] for r in per_node]},
                                 title="Seed degree vs mean spread",
                                 x_label="seed degree", y_label="mean spread"))
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
        save_svg("rq2_growth.svg",
                 render_line_svg(steps, series, title="Cumulative adopters (viral runs)",
                                 x_label="step", y_label="cumulative"))
    elif rq == 3:
        per_size = result["per_size"]
        save_svg("rq3_scaling.svg",
                 render_line_svg([r["n"] for r in per_size],
                                 {"time to virality": [r["mean_time_to_virality"] for r in per_size],
                                  "diameter": [r["mean_diameter"] for r in per_size]},
                                 title="Time to virality and diameter vs network size",
                                 x_label="nodes"))
    elif rq in (4, 5):
        grid = result["grid"]
        xcol = "value" if rq == 4 else "cosine"
        save_svg(f"rq{rq}_sweep.svg",
                 render_line_svg([r[xcol] for r in grid],
                                 {"virality frequency": [r["virality_frequency"] for r in grid],
                                  "mean time to virality": [r["mean_time_to_virality"] for r in grid]},
                                 title=f"RQ{rq} sweep", x_label=xcol))
    return outputs


def cmd_experiment(args) -> int:
    started = time.time()
    config_doc = _load_config_file(args.config)
    cfg = ExperimentConfig.from_dict(config_doc) if config_doc else ExperimentConfig()
    rq = int(args.rq)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if rq == 1:
        result = rq1_spread_distribution(cfg)
    elif rq == 2:
        result = rq2_growth_curves(cfg)
    elif rq == 3:
        result = rq3_size_scaling(cfg)
    elif rq == 4:
        result = rq4_param_sweep(cfg, args.axis)
    elif rq == 5:
        result = rq5_affinity_sweep(cfg)
    else:
        raise InvalidParameter("rq", f"unknown research question {rq}")

    outputs = _experiment_outputs(rq, result, out_dir)
    write_manifest(out_dir, f"experiment-rq{rq}", cfg.to_dict(), cfg.master_seed,
                   [args.config], outputs, started)
    print(f"wrote {len(outputs)} tables/plots to {out_dir}")
    return 0


def _learner_inputs(args, config):
    trust_path = _merged(args, config, "trust", None)
    ratings_path = _merged(args, config, "ratings", None)
    if trust_path is None or ratings_path is None:
        raise InvalidParameter("trust", "both --trust and --ratings are required")
    graph_path = _merged(args, config, "graph", None)
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
    return host, traces, (trust_path, ratings_path, graph_path)


def cmd_learn(args) -> int:
    started = time.time()
    config = _load_config_file(args.config)
    host, traces, inputs = _learner_inputs(args, config)
    form = str(_merged(args, config, "form", "sum"))
    steps = _merged(args, config, "steps", 200, int)
    lr = _merged(args, config, "lr", 0.01, float)
    master_seed = _merged(args, config, "seed", 0, int)
    augment = bool(_merged(args, config, "augment", False))
    out = _merged(args, config, "out", "model.json")

    params = init_params(host, form, rng_seed=derive_seed(master_seed, "init"))
    result = fit(traces, host, params, steps=steps, lr=lr, augment=augment)
    save_model(result.params, out)
    write_manifest(Path(out).parent, "learn",
                   {"trust": str(inputs[0]), "ratings": str(inputs[1]),
                    "graph": None if inputs[2] is None else str(inputs[2]),
                    "form": form, "steps": steps, "lr": lr, "augment": augment,
                    "out": str(out)},
                   master_seed, [args.config, *inputs], [out], started)
    print(f"wrote {out}: {len(traces)} traces, loss {result.losses[0]:.3f} -> {result.losses[-1]:.3f}")
    return 0


def cmd_learn_eval(args) -> int:
    started = time.time()
    config = _load_config_file(args.config)
    model_path = _merged(args, config, "model", None)
    if model_path is None:
        raise InvalidParameter("model", "a fitted model file is required")
    host, traces, inputs = _learner_inputs(args, config)
    test_fraction = _merged(args, config, "test-fraction", 0.2, float)
    split_seed = _merged(args, config, "split-seed", 0, int)
    out = _merged(args, config, "out", "eval.json")

    params = load_model(model_path, int_ids=inputs[2] is not None)
    train, test = split_traces(traces, test_fraction, rng_seed=split_seed)
    report = evaluate(train, test, host, params)
    if test:
        acc, majority, counts = activation_state_accuracy(test, host, params)
        report["test_pooled"] = {"accuracy": acc, "majority_baseline": majority, **counts}
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    write_manifest(Path(out).parent, "learn-eval",
                   {"model": str(model_path), "trust": str(inputs[0]),
                    "ratings": str(inputs[1]),
                    "graph": None if inputs[2] is None else str(inputs[2]),
                    "test_fraction": test_fraction, "split_seed": split_seed,
                    "out": str(out)},
                   split_seed, [args.config, model_path, *inputs], [out], started)
    print(f"wrote {out}")
    return 0


def cmd_optimize(args) -> int:
    started = time.time()
    config = _load_config_file(args.config)
    graph_path = _merged(args, config, "graph", None)
    if graph_path is None:
        raise InvalidParameter("graph", "a graph file is required")
    v = _merged(args, config, "seed-node", 0, int)
    khop = _merged(args, config, "khop", 2, int)
    width = _merged(args, config, "beam", 5, int)
    rounds = _merged(args, config, "rounds", 5, int)
    perturb = _merged(args, config, "perturb", 0.1, float)
    sims = _merged(args, config, "sims", 200, int)
    top_deg = _merged(args, config, "top-deg", 10, int)
    core_targets = _merged(args, config, "core-targets", None, int)
    master_seed = _merged(args, config, "seed", 0, int)
    out = _merged(args, config, "out", "best.json")

    g = load_graph(graph_path)
    params = _sim_params_from(args, config)
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
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    write_manifest(Path(out).parent, "optimize",
                   {"graph": str(graph_path), "seed_node": v, "khop": khop,
                    "beam": width, "rounds": rounds, "perturb": perturb,
                    "sims": sims, "top_deg": top_deg, "core_targets": core_targets,
                    "out": str(out)},
                   master_seed, [args.config, graph_path], [out], started)
    print(f"wrote {out}: estimated spread {result.best_score:.1f} +- {result.best_stderr:.1f}")
    return 0


def cmd_plot(args) -> int:
    started = time.time()
    config = _load_config_file(args.config)
    table = _merged(args, config, "table", None)
    if table is None:
        raise InvalidParameter("table", "an input CSV is required")
    kind = str(_merged(args, config, "kind", "line"))
    out = _merged(args, config, "out", "plot.svg")
    bins = _merged(args, config, "bins", 10, int)

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
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_text(svg)
    write_manifest(Path(out).parent, "plot",
                   {"table": str(table), "kind": kind, "bins": bins, "out": str(out)},
                   None, [args.config, table], [out], started)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contagion",
        description="Vector-propagation contagion simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config supplying defaults (flags win)")

    p = sub.add_parser("netgen", help="generate a weighted PA network")
    add_common(p)
    p.add_argument("--nodes", type=int)
    p.add_argument("--attach", type=int)
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_netgen)

    p = sub.add_parser("simulate", help="run propagation cascades")
    add_common(p)
    p.add_argument("--graph")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--epsilon", type=int)
    p.add_argument("--lambda", type=float, dest="lambda_", help="feature drift rate")
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
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("baseline", help="run IC / LT / k-complex baselines")
    add_common(p)
    p.add_argument("--model", choices=["ic", "lt", "kcomplex"])
    p.add_argument("--graph")
    p.add_argument("--p", type=float, help="IC activation probability")
    p.add_argument("--theta", type=float, help="LT constant threshold (omit for uniform)")
    p.add_argument("--k", type=int, help="k-complex reinforcement count")
    p.add_argument("--seeds")
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("analyze", help="summarize a batch of cascade records")
    add_common(p)
    p.add_argument("--runs")
    p.add_argument("--graph")
    p.add_argument("--report")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("experiment", help="run an RQ experiment from a config")
    add_common(p)
    p.add_argument("--rq", type=int, required=True, choices=[1, 2, 3, 4, 5])
    p.add_argument("--axis", choices=["alpha", "beta", "global"],
                   help="sweep axis for rq4")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("learn", help="fit the threshold model on cascade traces")
    add_common(p)
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
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("learn-eval", help="evaluate a fitted model")
    add_common(p)
    p.add_argument("--model")
    p.add_argument("--graph")
    p.add_argument("--trust")
    p.add_argument("--ratings")
    p.add_argument("--test-fraction", type=float)
    p.add_argument("--split-seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_learn_eval)

    p = sub.add_parser("optimize", help="search for a spread-maximizing vector")
    add_common(p)
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
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("plot", help="render a CSV table to SVG")
    add_common(p)
    p.add_argument("--table")
    p.add_argument("--kind", choices=["line", "hist"])
    p.add_argument("--bins", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_plot)

    return parser


def dispatch(argv) -> int:
    """Parse and execute; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    # argparse stores --lambda under lambda_; normalize for _merged lookups
    if hasattr(args, "lambda_"):
        setattr(args, "lambda", args.lambda_)
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
