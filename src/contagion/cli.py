"""Unified command-line entry point.

Subcommands: netgen, simulate, baseline, analyze, experiment, learn,
learn-eval, optimize, plot. Each command's keys are declared once, in
``COMMANDS``. A ``--config file.json`` supplies defaults that explicit
flags override. Every command records a run manifest (every key it
resolved, input digests, outputs, timing) in its output directory.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import fields
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
from .files import open_new
from .learner import (
    InfluenceGraph,
    evaluation_report,
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
from .updyn import CascadeRecord, Propagation, RunTally, SimParams, check_seeds, self_propagation

# ---------------------------------------------------------------------------
# plumbing


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _openblas_query(names, restype):
    """Call the first of ``names`` that each loaded OpenBLAS library
    exports; returns its result by library file name.

    Empty where the loaded libraries cannot be listed (no /proc/self/maps);
    a library that cannot be opened by its mapped path (replaced on disk, or
    a path with spaces) is left out.
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
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], restype
                out[Path(path).name] = fn()
                break
    return out


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS library uses, by library file name.

    Dense eigendecompositions round differently with the thread count, so
    byte-identical graphs need the same BLAS library, kernel and thread
    count.
    """
    return _openblas_query(("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                            "openblas_get_num_threads64_", "openblas_get_num_threads"),
                           ctypes.c_int)


def blas_cores() -> dict:
    """The CPU kernel each loaded OpenBLAS library runs (such as
    ``SkylakeX`` or ``Haswell``), by library file name.

    A dynamic-arch build picks it for the CPU at load time, or takes
    ``OPENBLAS_CORETYPE``; kernels round differently, so the determinism
    digests hold for one kernel.
    """
    found = _openblas_query(("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                             "openblas_get_corename64_", "openblas_get_corename"),
                            ctypes.c_char_p)
    return {lib: name.decode() for lib, name in found.items() if name is not None}


def write_csv(path, rows, columns=None) -> None:
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    with open_new(path, newline="") as fh:
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
                    value = float(cell)
                except ValueError:
                    raise InvalidParameter(
                        "table", f"{path}: line {lineno}: non-numeric cell {cell!r}"
                    )
                if not math.isfinite(value):
                    raise InvalidParameter(
                        "table", f"{path}: line {lineno}: non-finite cell {cell!r}"
                    )
                parsed.append(value)
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


def _parse_seeds(text) -> list:
    try:
        return [int(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError:
        raise InvalidParameter("seeds", f"could not parse seed list {text!r}")


# ---------------------------------------------------------------------------
# the key table

REQUIRED = object()  # the default of a key that a flag or the config must give
MAX_COUNT = 10**6  # the most runs, sims, rounds, steps or bins a command takes


class Key(NamedTuple):
    """One CLI key: the flag ``--name`` and the ``--config`` entry ``name``.

    ``kind`` is int, float, boolean, path, text (a string or an integer) or
    choice. ``bound`` is an inclusive ``(lo, hi)`` for a number, with None
    for an open end; the choices of a choice; ``"r"`` for a path the
    command reads (recorded among the manifest's inputs) and ``"w"`` for
    one it writes.
    """

    name: str
    kind: str
    default: object = None
    bound: object = None
    help: str = ""

    def resolve(self, flag, file: dict):
        """The flag, else the config value, else the default, checked.

        A null config value counts only where the default is None;
        ``jobs`` falls back on ``CONTAGION_JOBS`` before its default.
        """
        val = file.get(self.name, self.default) if flag is None else flag
        if val is None and self.name == "jobs":
            val = os.environ.get("CONTAGION_JOBS", 1)
        if val is REQUIRED or val is None and self.default is REQUIRED:
            raise InvalidParameter(self.name, f"--{self.name} is required")
        if val is None and self.default is not None:
            raise InvalidParameter(self.name, "must not be null")
        return None if val is None else self.check(val)

    def check(self, val):
        """``val`` as this key takes it; InvalidParameter naming the key if
        it has the wrong kind or lies outside the bound."""
        kind, bound = self.kind, self.bound
        if kind == "boolean":
            try:
                return boolean(val)
            except ValueError:
                raise InvalidParameter(self.name, f"expected boolean, got {val!r}") from None
        # open() reads an integer as a file descriptor
        if kind == "path" and not (isinstance(val, str) and val):
            raise InvalidParameter(self.name, f"expected a file name, got {val!r}")
        if kind == "text" and (isinstance(val, bool) or not isinstance(val, (str, int))):
            raise InvalidParameter(self.name, f"expected a string, got {val!r}")
        if kind == "choice" and (isinstance(val, bool) or val not in bound):
            raise InvalidParameter(self.name, f"expected one of {', '.join(map(str, bound))}, "
                                              f"got {val!r}")
        if kind not in ("int", "float"):
            return val
        # int() would truncate 2.5 to 2, and int() and float() read true as 1
        if isinstance(val, bool) or kind == "int" and isinstance(val, float) and not val.is_integer():
            raise InvalidParameter(self.name, f"expected {kind}, got {val!r}")
        try:
            num = int(val) if kind == "int" else float(val)
        except (TypeError, ValueError):
            raise InvalidParameter(self.name, f"expected {kind}, got {val!r}") from None
        # NaN and infinities pass float() and no JSON output can hold them
        if not math.isfinite(num):
            raise InvalidParameter(self.name, f"expected a finite number, got {val!r}")
        lo, hi = bound or (None, None)
        if lo is not None and num < lo:
            raise InvalidParameter(self.name, f"must be >= {lo}, got {num}")
        if hi is not None and num > hi:
            raise InvalidParameter(self.name, f"must be <= {hi}, got {num}")
        return num

    def flag(self) -> dict:
        """``add_argument`` keywords: the flag's type, and its help with the
        default and the bound of a number."""
        notes = [] if self.default is None else [
            "required" if self.default is REQUIRED else f"default: {self.default}"]
        if self.kind in ("int", "float") and self.bound:
            lo, hi = self.bound
            notes += [f"{word} {end}" for word, end in (("at least", lo), ("at most", hi))
                      if end is not None]
        shown = f"{self.help} ({'; '.join(notes)})" if notes else self.help
        shown = shown.strip().replace("%", "%%")
        if self.kind == "boolean":
            return {"action": "store_const", "const": True, "help": shown}
        if self.kind == "choice":
            return {"choices": self.bound, "type": type(self.bound[0]), "help": shown}
        return {"type": {"int": int, "float": float}.get(self.kind, str), "help": shown}


SEED = Key("seed", "int", 0, (0, None), "master seed")
SIM_KEYS = (  # the SimParams fields, read by _sim_params_from
    Key("alpha", "float", 1.0 / 3.0, None, "weight of the vector-affinity score"),
    Key("beta", "float", 1.0 / 3.0, None, "weight of the local-influence score"),
    Key("gamma", "float", 0.05, None, "activation scale"),
    Key("epsilon", "int", 10, None, "cooling period: steps without change that end a run"),
    Key("lambda", "float", 0.0, None, "feature drift rate"),
    Key("max-steps", "int", None, None, "step cap (unset: 10 n)"),
    Key("viral-fraction", "float", 0.5, None, "spread, as a share of n, that makes a run viral"),
    Key("spontaneous", "boolean", False, None,
        "let every inactive node draw each step (no contact gate)"),
)
LEARNER_KEYS = (  # read by _learner_inputs
    Key("trust", "path", REQUIRED, "r", "TSV truster<TAB>trustee"),
    Key("ratings", "path", REQUIRED, "r", "TSV user<TAB>product<TAB>timestamp"),
    Key("graph", "path", None, "r", "optional host graph (integer node ids)"),
)

EXPERIMENT_CONFIG_HELP = ("JSON ExperimentConfig with the keys "
                          + ", ".join(f.name for f in fields(ExperimentConfig)))

# command -> (summary, keys in the order they resolve and enter the manifest)
COMMANDS = {
    "netgen": ("generate a weighted PA network", (
        Key("nodes", "int", 1000, None, "network size"),
        Key("attach", "int", 2, None, "edges each new node attaches"),
        Key("embed-dim", "int", 10, None, "spectral feature dimension"),
        SEED._replace(bound=None),  # generate_pa checks it
        Key("out", "path", "graph.json", "w"),
    )),
    "simulate": ("run propagation cascades", (
        Key("graph", "path", REQUIRED, "r", "graph JSON"),
        Key("out", "path", "runs.jsonl", "w"),
        Key("seeds", "text", "0", None, "comma-separated seed node ids"),
        Key("prop", "text", "self", None, "self | affinity:<c> | path to vector JSON"),
        Key("runs", "int", 1, (1, MAX_COUNT), "cascades to run"),
        SEED,
        *SIM_KEYS,
        Key("jobs", "int", None, (1, None), "worker processes (unset: CONTAGION_JOBS, else 1)"),
    )),
    "baseline": ("run IC / LT / k-complex baselines", (
        Key("graph", "path", REQUIRED, "r", "graph JSON"),
        Key("model", "choice", REQUIRED, ("ic", "lt", "kcomplex")),
        Key("out", "path", "runs.jsonl", "w"),
        Key("seeds", "text", "0", None, "comma-separated seed node ids"),
        Key("runs", "int", 1, (1, MAX_COUNT), "cascades to run"),
        SEED,
        Key("p", "float", None, None, "IC activation probability (unset: 0.1)"),
        Key("theta", "float", None, None, "LT constant threshold (omit for uniform)"),
        Key("k", "int", None, None, "k-complex reinforcement count (unset: 2)"),
    )),
    "analyze": ("summarize a batch of cascade records", (
        Key("runs", "path", REQUIRED, "r", "runs JSONL"),
        Key("graph", "path", REQUIRED, "r", "graph JSON the runs were simulated on"),
        Key("report", "path", "report.json", "w"),
    )),
    "experiment": ("run an RQ experiment from a config", (
        Key("rq", "choice", REQUIRED, (1, 2, 3, 4, 5), "research question"),
        Key("axis", "choice", None, ("alpha", "beta", "global"), "sweep axis for rq4"),
        Key("out-dir", "path", REQUIRED, "w", "directory for the tables and plots"),
    )),
    "learn": ("fit the threshold model on cascade traces", (
        *LEARNER_KEYS,
        Key("form", "choice", "sum", ("sum", "mean"), "aggregation"),
        Key("steps", "int", 200, (None, MAX_COUNT), "gradient steps"),
        Key("lr", "float", 0.01, None, "learning rate"),
        SEED,
        Key("augment", "boolean", False, None, "add prefix subcascades to the training set"),
        Key("out", "path", "model.json", "w"),
    )),
    "learn-eval": ("evaluate a fitted model", (
        Key("model", "path", REQUIRED, "r", "model JSON from learn"),
        *LEARNER_KEYS,
        Key("test-fraction", "float", 0.2, None, "share of the traces held out"),
        SEED._replace(name="split-seed", help="seed of the train/test split"),
        Key("out", "path", "eval.json", "w"),
    )),
    "optimize": ("search for a spread-maximizing vector", (
        Key("graph", "path", REQUIRED, "r", "graph JSON"),
        Key("seed-node", "int", 0, None, "node the cascades start from"),
        Key("khop", "int", 2, None, "hops of the candidate neighbourhood"),
        Key("beam", "int", 5, None, "beam width"),
        Key("rounds", "int", 5, (None, MAX_COUNT), "beam rounds"),
        Key("perturb", "float", 0.1, None, "perturbation scale"),
        Key("sims", "int", 200, (None, MAX_COUNT), "cascades per spread estimate"),
        Key("top-deg", "int", 10, None, "hubs in the candidate pool"),
        Key("core-targets", "int", None, None, "nearest core nodes the pool reaches (unset: all)"),
        SEED,
        Key("out", "path", "best.json", "w"),
        *SIM_KEYS,
    )),
    "plot": ("render a CSV table to SVG", (
        Key("table", "path", REQUIRED, "r", "CSV table"),
        Key("kind", "choice", "line", ("line", "hist")),
        Key("out", "path", "plot.svg", "w"),
        Key("bins", "int", 10, (1, MAX_COUNT), "histogram bins"),
    )),
}


class Options:
    """One command's resolved keys and the files it reads.

    Every key of the command's table resolves in table order (``Key.resolve``);
    ``opts[name]`` is its value, ``config`` keeps every value for the
    manifest and ``inputs`` the config file and every path the command reads.
    """

    def __init__(self, args):
        self.file = _load_config_file(args.config)
        self.inputs = [] if args.config is None else [args.config]
        self.config = {}
        for key in COMMANDS[args.command][1]:
            flag = getattr(args, key.name.replace("-", "_"))
            self.config[key.name] = val = key.resolve(flag, self.file)
            if key.bound == "r" and val is not None:
                self.inputs.append(val)

    def __getitem__(self, name: str):
        return self.config[name]


class Done(NamedTuple):
    """A command's result. ``outputs`` maps each output path to a JSON
    document (dict), JSON lines (list), text (str) or a writer called with
    the path; ``message`` is the line printed when everything is written."""

    outputs: dict
    message: str
    metrics: dict | None = None


def _write(path: Path, content) -> None:
    """Write one output; every writer replaces the file (``files.open_new``)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if callable(content):
        content(path)
        return
    with open_new(path) as fh:
        if isinstance(content, str):
            fh.write(content)
        elif isinstance(content, dict):
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
    """SimParams from the command's keys; a refused value is reported under
    its flag's name (``max-steps``, not the field ``max_steps``)."""
    kwargs = dict(
        alpha=opts["alpha"],
        beta=opts["beta"],
        gamma=opts["gamma"],
        epsilon=opts["epsilon"],
        drift=opts["lambda"],
        max_steps=opts["max-steps"],
        viral_fraction=opts["viral-fraction"],
        require_contact=not opts["spontaneous"],
    )
    try:
        return SimParams(**kwargs)
    except InvalidParameter as err:
        key = err.field.replace("_", "-")
        raise InvalidParameter(key, str(err).removeprefix(f"{err.field}: ")) from None


def _read_prop_vector(path) -> Propagation:
    """The propagation of a ``{"vector": [...]}`` JSON file, normalized."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise InvalidParameter("prop", f"{path}: not valid JSON ({err})") from None
    if not isinstance(doc, dict) or "vector" not in doc:
        raise InvalidParameter("prop", f'{path}: expected an object with a "vector" list')
    return Propagation.from_vector(doc["vector"])


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
    spread, waves = rec["final_spread"], sum(rec["new_per_step"])
    activated = sum(t is not None for t in rec["activation_time"])
    if not spread == waves == activated:
        return (f"final_spread {spread}, the {waves} adopters of new_per_step and the "
                f"{activated} activation times do not agree")
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


# ---------------------------------------------------------------------------
# subcommands


@command
def cmd_netgen(opts) -> Done:
    n, k, out = opts["nodes"], opts["embed-dim"], opts["out"]
    g = build_graph(n, opts["attach"], k, opts["seed"])
    feats = g.features
    return Done({out: partial(save_graph, g)}, f"wrote {out}: n={n} edges={len(g.raw.edges)} k={k}",
                metrics={"solver": feats.solver, "max_residual": feats.max_residual,
                         "min_eigengap": feats.min_eigengap, "warnings": list(feats.warnings),
                         "blas_threads": blas_threads(), "blas_cores": blas_cores()})


@command
def cmd_simulate(opts) -> Done:
    out, master_seed = opts["out"], opts["seed"]
    seeds = _parse_seeds(opts["seeds"])
    prop_mode = str(opts["prop"])
    params = _sim_params_from(opts)

    g = load_graph(opts["graph"])
    seeds = check_seeds(g, seeds)
    cosine = None
    if prop_mode == "self":
        prop = self_propagation(g, seeds[0])
    elif prop_mode.startswith("affinity:"):
        try:
            cosine = float(prop_mode.split(":", 1)[1])
        except ValueError:
            raise InvalidParameter("prop", f"bad affinity cosine in {prop_mode!r}")
    else:
        opts.inputs.append(prop_mode)
        prop = _read_prop_vector(prop_mode)
    runs = []
    for i in range(opts["runs"]):
        if cosine is not None:
            rng = np.random.default_rng(derive_seed(master_seed, "dir", i))
            prop = Propagation(vec=misaligned_vector(g.features.rows[seeds[0]], cosine, rng))
        runs.append((prop, seeds, derive_seed(master_seed, "run", i)))
    tally = RunTally()
    records = pool_map(g, runs, params, CascadeRecord.to_dict, opts["jobs"], tally)
    mean = np.mean([r["final_spread"] for r in records])
    return Done({out: records}, f"wrote {out}: {len(records)} runs, mean spread {mean:.1f}",
                metrics=tally.to_dict())


@command
def cmd_baseline(opts) -> Done:
    model, out, p, theta, k = (opts[key] for key in ("model", "out", "p", "theta", "k"))
    seeds = _parse_seeds(opts["seeds"])
    g = load_graph(opts["graph"])

    if theta is None:
        lt_cfg = BaselineConfig(model="lt", lt_dist="uniform")
    else:
        lt_cfg = BaselineConfig(model="lt", lt_dist="constant", lt_theta=theta)
    run = {"ic": lambda s: run_ic(g, seeds, 0.1 if p is None else p, s),
           "lt": lambda s: run_lt(g, seeds, lt_cfg, s),
           "kcomplex": lambda s: run_kcomplex(g, seeds, 2 if k is None else k)}[model]
    records = [run(derive_seed(opts["seed"], "run", i)).to_dict() for i in range(opts["runs"])]
    return Done({out: records}, f"wrote {out}: {len(records)} {model} runs",
                metrics={"cascades": len(records),
                         "steps": sum(r["converged_at"] for r in records),
                         "hit_cap_runs": sum(r["hit_cap"] for r in records)})


@command
def cmd_analyze(opts) -> Done:
    report_path = opts["report"]
    g = load_graph(opts["graph"])
    records = _read_runs(opts["runs"], g.n)
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
    # rq, axis and out-dir are the command's own keys, not the config's
    own = {key.name for key in COMMANDS["experiment"][1]}
    cfg = ExperimentConfig.from_dict({k: v for k, v in opts.file.items() if k not in own})
    opts.config = {**cfg.to_dict(), **opts.config}
    rq, out_dir = opts["rq"], Path(opts["out-dir"])
    run = {1: rq1_spread_distribution, 2: rq2_growth_curves, 3: rq3_size_scaling,
           4: partial(rq4_param_sweep, axis=opts["axis"]), 5: rq5_affinity_sweep}[rq]
    tally = RunTally()
    outputs = _experiment_outputs(rq, run(cfg, tally=tally), out_dir)
    return Done(outputs, f"wrote {len(outputs)} tables/plots to {out_dir}",
                metrics=tally.to_dict())


def _learner_inputs(opts):
    """(host graph, traces, whether node ids are the graph's integers)."""
    graph_path = opts["graph"]
    trust = load_trust_tsv(opts["trust"])
    ratings = load_ratings_tsv(opts["ratings"])
    if graph_path is not None:
        try:
            trust = [(int(a), int(b)) for a, b in trust]
            ratings = [(int(u), p, t) for u, p, t in ratings]
        except ValueError:
            raise InvalidParameter("trust", "ids must be integers when --graph is given")
        host = InfluenceGraph.from_weighted_graph(load_graph(graph_path))
    else:
        host = InfluenceGraph.from_trust_edges(trust)
    traces = reconstruct_traces(trust, ratings)
    if not traces:
        raise InvalidParameter("ratings", "no usable cascade traces (need >= 2 raters per product)")
    return host, traces, graph_path is not None


@command
def cmd_learn(opts) -> Done:
    host, traces, _ = _learner_inputs(opts)
    out = opts["out"]
    params = init_params(host, opts["form"], rng_seed=derive_seed(opts["seed"], "init"))
    result = fit(traces, host, params, steps=opts["steps"], lr=opts["lr"], augment=opts["augment"])
    return Done({out: partial(save_model, result.params)}, f"wrote {out}: {len(traces)} traces, "
                f"loss {result.losses[0]:.3f} -> {result.losses[-1]:.3f}")


@command
def cmd_learn_eval(opts) -> Done:
    host, traces, int_ids = _learner_inputs(opts)
    out = opts["out"]
    params = load_model(opts["model"], int_ids=int_ids)
    train, test = split_traces(traces, opts["test-fraction"], rng_seed=opts["split-seed"])
    return Done({out: evaluation_report(train, test, host, params)}, f"wrote {out}")


@command
def cmd_optimize(opts) -> Done:
    v, out = opts["seed-node"], opts["out"]
    g = load_graph(opts["graph"])
    params = _sim_params_from(opts)
    pool = build_candidate_pool(g, v, opts["khop"], opts["top-deg"],
                                core_targets=opts["core-targets"])
    cfg = BeamConfig(width=opts["beam"], rounds=opts["rounds"], eps_perturb=opts["perturb"],
                     sims=opts["sims"])
    result = beam_search(g, v, pool, cfg, params, opts["seed"])

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
    table, out = opts["table"], opts["out"]
    header, rows = read_csv_table(table)
    if opts["kind"] == "line":
        xs = [r[0] for r in rows]
        series = {
            header[j]: [r[j] for r in rows] for j in range(1, len(header))
        }
        svg = render_line_svg(xs, series, title=Path(table).stem, x_label=header[0] if header else "")
    else:
        values = [r[0] for r in rows if r[0] is not None]
        svg = render_hist_svg(values, bins=opts["bins"], title=Path(table).stem,
                              x_label=header[0] if header else "")
    return Done({out: svg}, f"wrote {out}")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """One subparser per ``COMMANDS`` entry, one flag per key; each runs
    the ``cmd_*`` function the module holds when the parser is built."""
    parser = argparse.ArgumentParser(
        prog="contagion",
        description="Vector-propagation contagion simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help=EXPERIMENT_CONFIG_HELP if name == "experiment"
                       else "JSON config supplying defaults (flags win)")
        for key in keys:
            p.add_argument(f"--{key.name}", **key.flag())
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
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
