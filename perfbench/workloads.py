"""The four benchmark workloads.

Each workload is a closed loop in one process: the benchmark calls one
iteration, which runs a fixed chain of steps, and starts the next iteration
when it returns. Every input is derived from the workload seed with
``derive_seed``; iteration ``i`` draws its own Monte Carlo seeds and node
samples, so a longer run covers more independent inputs. Steps call the
package through module attributes (``experiments.rq4_param_sweep``), which is
what lets the tracer see them. Checks run between steps, outside the timed
part, and call nothing the tracer wraps.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from contagion import baselines, cli, experiments, learner, netgen, optimizer, updyn
from contagion.rng import derive_seed

import checks

FULL = "full"
TINY = "tiny"

# Sizes per scale. "full" is what the benchmark measures; "tiny" runs the
# same chains in about a second, for the benchmark's own tests.
SIZES = {
    "mc_sweep": {
        FULL: dict(n=1000, r=2, k=10, sample=30, runs_per_node=2, baseline_runs=40),
        TINY: dict(n=120, r=2, k=6, sample=6, runs_per_node=2, baseline_runs=4),
    },
    "optimize": {
        FULL: dict(n=1000, r=2, k=10, sims=50, dp_sims=10),
        TINY: dict(n=120, r=2, k=6, sims=3, dp_sims=1),
    },
    "learn_fit": {
        FULL: dict(lt_n=500, lt_k=8, lt_runs=60, up_n=1000, up_k=10, up_traces=12, up_min=100, steps=3),
        TINY: dict(lt_n=80, lt_k=6, lt_runs=10, up_n=100, up_k=6, up_traces=6, up_min=10, steps=2),
    },
    "graph_pipeline": {
        FULL: dict(n=4000, r=2, k=10, runs=8, warm_n=200),
        TINY: dict(n=150, r=2, k=6, runs=2, warm_n=60),
    },
}

ALPHA_GRID = (0.2, 0.5, 0.8)
COSINES = (-0.9, 0.9)
IC_P = 0.25
KCOMPLEX_K = 2
LT_THETA = 0.35
DRIFT = 0.1


@dataclass(frozen=True)
class Step:
    label: str
    run: Callable  # (ctx, it, out) -> result
    check: Callable  # (ctx, it, out, result) -> list of problems


def scratch_dir(workdir: Path) -> Path:
    return Path(tempfile.mkdtemp(dir=workdir))


def dispatch_quietly(argv) -> int:
    """``cli.dispatch`` with its progress lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.dispatch(argv)


def _graph1000(seed, size):
    """The n=1000, r=2, k=10 graph shared by mc_sweep and optimize."""
    gseed = derive_seed(seed, "graph1000")
    return gseed, netgen.build_graph(size["n"], size["r"], size["k"], gseed)


def _hub(g) -> int:
    return int(np.argmax(g.raw.degree))


class Workload:
    name = ""
    work_unit = ""
    steps: tuple = ()

    def __init__(self, scale=FULL):
        self.scale = scale
        self.size = SIZES[self.name][scale]

    def setup(self, seed, workdir: Path) -> dict:
        raise NotImplementedError

    def setup_checks(self, ctx) -> list:
        return []

    def work(self, ctx, out) -> int:
        raise NotImplementedError

    def fingerprint(self, ctx, out) -> dict:
        raise NotImplementedError

    def teardown(self, ctx) -> None:
        pass


# ---------------------------------------------------------------------------
# mc_sweep


def _check_grid(rows, runs_each, label):
    problems = []
    for row in rows:
        if row["n_runs"] != runs_each:
            problems.append(f"{label}: {row['n_runs']} runs, expected {runs_each}")
        if not 0 <= row["n_viral"] <= row["n_runs"]:
            problems.append(f"{label}: n_viral {row['n_viral']} outside [0, {row['n_runs']}]")
        if row["virality_frequency"] != row["n_viral"] / row["n_runs"]:
            problems.append(f"{label}: virality_frequency disagrees with n_viral / n_runs")
    return problems


def _check_records(recs, label):
    problems = []
    for j, rec in enumerate(recs):
        problems += checks.record_invariants(rec, f"{label}[{j}]")
    return problems


class McSweep(Workload):
    name = "mc_sweep"
    work_unit = "cascades"

    def setup(self, seed, workdir):
        gseed, g = _graph1000(seed, self.size)
        return {"seed": seed, "gseed": gseed, "g": g, "hub": _hub(g)}

    def setup_checks(self, ctx):
        return checks.feature_invariants(ctx["g"].features)

    def _cfg(self, ctx, it, label, **extra):
        s = self.size
        return experiments.ExperimentConfig(
            graph=experiments.GraphSpec(n=s["n"], r=s["r"], embed_dim=s["k"], seed=ctx["gseed"]),
            params=updyn.SimParams(),
            runs_per_node=s["runs_per_node"],
            node_selection=f"sample:{s['sample']}",
            master_seed=derive_seed(ctx["seed"], "mc_sweep", label, it),
            jobs=1,
            **extra,
        )

    def _rq4(self, ctx, it, out):
        cfg = self._cfg(ctx, it, "rq4", sweep_values=ALPHA_GRID)
        return experiments.rq4_param_sweep(cfg, "alpha", ctx["g"])

    def _rq5(self, ctx, it, out):
        return experiments.rq5_affinity_sweep(self._cfg(ctx, it, "rq5", sweep_values=COSINES), ctx["g"])

    def _runs_each(self):
        return self.size["sample"] * self.size["runs_per_node"]

    def _check_rq4(self, ctx, it, out, res):
        return _check_grid(res["grid"], self._runs_each(), "rq4")

    def _check_rq5(self, ctx, it, out, res):
        problems = _check_grid(res["grid"], self._runs_each(), "rq5")
        if any(row["max_cosine_error"] > 1e-9 for row in res["grid"]):
            problems.append("rq5: propagation cosine off by more than 1e-9")
        return problems

    def _ic(self, ctx, it, out):
        master = derive_seed(ctx["seed"], "mc_sweep", "ic", it)
        return [baselines.run_ic(ctx["g"], [ctx["hub"]], IC_P, derive_seed(master, j))
                for j in range(self.size["baseline_runs"])]

    def _lt(self, ctx, it, out):
        master = derive_seed(ctx["seed"], "mc_sweep", "lt", it)
        cfg = baselines.BaselineConfig(model=baselines.LT)
        return [baselines.run_lt(ctx["g"], [ctx["hub"]], cfg, derive_seed(master, j))
                for j in range(self.size["baseline_runs"])]

    def _kcomplex(self, ctx, it, out):
        return [baselines.run_kcomplex(ctx["g"], [ctx["hub"]], KCOMPLEX_K)]

    @property
    def steps(self):
        return (
            Step("rq4", self._rq4, self._check_rq4),
            Step("rq5", self._rq5, self._check_rq5),
            Step("ic", self._ic, lambda c, i, o, r: _check_records(r, "ic")),
            Step("lt", self._lt, lambda c, i, o, r: _check_records(r, "lt")),
            Step("kcomplex", self._kcomplex, lambda c, i, o, r: _check_records(r, "kcomplex")),
        )

    def work(self, ctx, out):
        grids = out["rq4"]["grid"] + out["rq5"]["grid"]
        return sum(row["n_runs"] for row in grids) + sum(len(out[k]) for k in ("ic", "lt", "kcomplex"))

    def fingerprint(self, ctx, out):
        fp = checks.graph_fingerprint(ctx["g"])
        for label in ("rq4", "rq5"):
            grid = out[label]["grid"]
            fp[f"{label}.n_viral"] = checks.exact([row["n_viral"] for row in grid])
            fp[f"{label}.mean_time_to_virality"] = checks.close_rel(
                [row["mean_time_to_virality"] for row in grid])
        for label in ("ic", "lt", "kcomplex"):
            recs = out[label]
            fp[f"{label}.spreads"] = checks.exact([int(r.final_spread) for r in recs])
            fp[f"{label}.activation_time"] = checks.exact(
                checks.digest(np.concatenate([r.activation_time for r in recs])))
        return fp


# ---------------------------------------------------------------------------
# optimize


class Optimize(Workload):
    name = "optimize"
    work_unit = "cascades"

    BEAM = dict(width=2, rounds=2, eps_perturb=0.1, spawn=4)
    # Spread is scored over a 30-step horizon, so every cascade is a short
    # probe. Uncapped, the one run in seven that goes viral from a periphery
    # seed costs 24x a dead one, and the count of those alone moved wall
    # time by a quarter between workload seeds.
    PARAMS = updyn.SimParams(max_steps=30)
    POOL = dict(K=1, top_deg=3, core_targets=3)
    DP_HORIZON = 3

    def setup(self, seed, workdir):
        _, g = _graph1000(seed, self.size)
        return {"seed": seed, "g": g, "periphery": np.flatnonzero(g.segments == netgen.PERIPHERY)}

    def setup_checks(self, ctx):
        return checks.feature_invariants(ctx["g"].features)

    def _node(self, ctx, it):
        rng = np.random.default_rng(derive_seed(ctx["seed"], "optimize", "node", it))
        return int(ctx["periphery"][rng.integers(len(ctx["periphery"]))])

    def _rng_seed(self, ctx, it):
        return derive_seed(ctx["seed"], "optimize", "mc", it)

    def _pool(self, ctx, it, out):
        out["v"] = self._node(ctx, it)
        return optimizer.build_candidate_pool(ctx["g"], out["v"], **self.POOL)

    def _check_pool(self, ctx, it, out, pool):
        problems = []
        if out["v"] not in pool.nodes:
            problems.append("pool: seed node missing")
        if len(pool.candidates) != 2 * len(pool.nodes):
            problems.append("pool: expected two candidates per node")
        if not all(abs(np.linalg.norm(c.vec) - 1.0) <= 1e-9 for c in pool.candidates):
            problems.append("pool: candidate vectors are not unit norm")
        return problems

    def _beam(self, ctx, it, out):
        cfg = optimizer.BeamConfig(sims=self.size["sims"], **self.BEAM)
        return optimizer.beam_search(ctx["g"], out["v"], out["pool"], cfg, self.PARAMS,
                                     self._rng_seed(ctx, it))

    def _check_beam(self, ctx, it, out, res):
        problems = []
        rb = np.asarray(res.round_best)
        if len(rb) != self.BEAM["rounds"] + 1:
            problems.append(f"beam: {len(rb)} round scores")
        if np.any(np.diff(rb) < 0):
            problems.append(f"beam: round_best decreased {list(rb)}")
        if res.best_score != rb[-1]:
            problems.append("beam: best_score is not the last round's best")
        if not 1.0 <= res.best_score <= ctx["g"].n:
            problems.append(f"beam: best_score {res.best_score} outside [1, n]")
        requests = len(out["pool"]) + self.BEAM["rounds"] * self.BEAM["width"] * self.BEAM["spawn"]
        if not 1 <= res.evaluations <= requests:
            problems.append(f"beam: {res.evaluations} evaluations for {requests} score requests")
        if abs(np.linalg.norm(res.best_vec) - 1.0) > 1e-9:
            problems.append("beam: best vector is not unit norm")
        return problems

    def _dp(self, ctx, it, out):
        seed = self._rng_seed(ctx, it)
        cfg = optimizer.DpConfig(codebook=optimizer.default_codebook(ctx["g"], out["v"], seed),
                                 horizon=self.DP_HORIZON, sims_per_estimate=self.size["dp_sims"])
        return optimizer.dp_policy(ctx["g"], out["v"], cfg, self.PARAMS, seed)

    def _check_dp(self, ctx, it, out, res):
        problems = []
        if not (np.all(np.isfinite(res.values)) and np.all(np.isfinite(res.immediate_reward))):
            problems.append("dp: non-finite values")
        if not 0 <= res.recommendation < res.immediate_reward.shape[0]:
            problems.append(f"dp: recommendation {res.recommendation} out of range")
        sums = res.transitions.sum(axis=-1)
        if not np.all((np.abs(sums - 1.0) <= 1e-9) | (sums == 0.0)):
            problems.append("dp: transition rows do not sum to 1")
        return problems

    @property
    def steps(self):
        return (
            Step("pool", self._pool, self._check_pool),
            Step("beam", self._beam, self._check_beam),
            Step("dp", self._dp, self._check_dp),
        )

    def work(self, ctx, out):
        codebook = out["dp"].immediate_reward.shape[0]
        return out["beam"].evaluations * self.size["sims"] + codebook * self.size["dp_sims"]

    def fingerprint(self, ctx, out):
        fp = checks.graph_fingerprint(ctx["g"])
        beam, dp = out["beam"], out["dp"]
        fp["pool.nodes"] = checks.exact([int(x) for x in out["pool"].nodes])
        fp["beam.round_best"] = checks.close_rel(beam.round_best)
        fp["beam.evaluations"] = checks.exact(int(beam.evaluations))
        fp["beam.best_vec"] = checks.close_abs(beam.best_vec)
        fp["dp.recommendation"] = checks.exact(int(dp.recommendation))
        fp["dp.immediate_reward"] = checks.close_rel(dp.immediate_reward)
        fp["dp.values"] = checks.close_rel(dp.values)
        return fp


# ---------------------------------------------------------------------------
# learn_fit


class LearnFit(Workload):
    """Two trace shapes, each written as trust + rating logs in set-up.

    ``lt``: many small linear-threshold traces (about 8 members) on a
    500-node host. ``up``: fewer unified-propagation traces with hundreds of
    members on a 1000-node host.
    """

    name = "learn_fit"
    work_unit = "gradient evaluations"
    SHAPES = ("lt", "up")
    LR = 0.05

    def setup(self, seed, workdir):
        s = self.size
        tmp = scratch_dir(workdir)
        ctx = {"seed": seed, "tmp": tmp, "shapes": {}}
        lt_g = netgen.build_graph(s["lt_n"], 2, s["lt_k"], derive_seed(seed, "learn_fit", "lt-host"))
        rng = np.random.default_rng(derive_seed(seed, "learn_fit", "lt-seeds"))
        cfg = baselines.BaselineConfig(model=baselines.LT, lt_dist=baselines.CONSTANT, lt_theta=LT_THETA)
        lt_recs = [
            baselines.run_lt(lt_g, rng.choice(lt_g.n, size=4, replace=False), cfg,
                             derive_seed(seed, "learn_fit", "lt", i))
            for i in range(s["lt_runs"])
        ]
        up_g = netgen.build_graph(s["up_n"], 2, s["up_k"], derive_seed(seed, "learn_fit", "up-host"))
        up_recs = _large_cascades(up_g, s["up_traces"], s["up_min"], derive_seed(seed, "learn_fit", "up"))
        for shape, g, recs in (("lt", lt_g, lt_recs), ("up", up_g, up_recs)):
            trust_path, ratings_path, expected = _write_logs(tmp, shape, g, recs)
            trust = learner.load_trust_tsv(trust_path)
            ctx["shapes"][shape] = {
                "graph": g,
                "trust": trust,
                "ratings": learner.load_ratings_tsv(ratings_path),
                "host": learner.InfluenceGraph.from_trust_edges(trust),
                "expected": expected,
            }
        return ctx

    def setup_checks(self, ctx):
        problems = []
        for shape, data in ctx["shapes"].items():
            problems += checks.feature_invariants(data["graph"].features, shape)
        return problems

    def teardown(self, ctx):
        shutil.rmtree(ctx["tmp"], ignore_errors=True)

    def _split_seed(self, ctx, it, shape):
        return derive_seed(ctx["seed"], "learn_fit", "split", shape, it)

    def _reconstruct(self, shape):
        def run(ctx, it, out):
            data = ctx["shapes"][shape]
            traces = learner.reconstruct_traces(data["trust"], data["ratings"])
            out[f"{shape}.split"] = learner.split_traces(traces, 0.2, self._split_seed(ctx, it, shape))
            return traces

        def check(ctx, it, out, traces):
            expected = ctx["shapes"][shape]["expected"]
            got = {t.trace_id: frozenset(t.members) for t in traces}
            if got != expected:
                return [f"{shape}: reconstructed traces differ from the simulated cascades"]
            return []

        return Step(f"{shape}.reconstruct", run, check)

    def _fit(self, shape, form):
        def run(ctx, it, out):
            host = ctx["shapes"][shape]["host"]
            train, _ = out[f"{shape}.split"]
            init = learner.init_params(host, form, derive_seed(ctx["seed"], "learn_fit", "init", it))
            return learner.fit(train, host, init, steps=self.size["steps"], lr=self.LR)

        def check(ctx, it, out, res):
            problems = []
            if len(res.losses) != self.size["steps"] + 1:
                problems.append(f"{shape}.{form}: {len(res.losses)} losses")
            if not checks.finite(res.losses):
                problems.append(f"{shape}.{form}: non-finite loss")
            return problems

        return Step(f"{shape}.fit_{form}", run, check)

    def _evaluate(self, shape):
        def run(ctx, it, out):
            host = ctx["shapes"][shape]["host"]
            train, test = out[f"{shape}.split"]
            params = out[f"{shape}.fit_mean"].params
            report = learner.evaluate(train, test, host, params)
            return report, learner.activation_state_accuracy(test, host, params)

        def check(ctx, it, out, res):
            report, (accuracy, majority, counts) = res
            values = [accuracy, majority] + [
                v for part in report.values() for key, v in part.items()
                if key in ("active_nonseeds", "boundary") and v is not None
            ]
            if not all(0.0 <= v <= 1.0 for v in values):
                return [f"{shape}: accuracy outside [0, 1]"]
            return []

        return Step(f"{shape}.evaluate", run, check)

    @property
    def steps(self):
        out = []
        for shape in self.SHAPES:
            out += [self._reconstruct(shape), self._fit(shape, learner.MEAN),
                    self._fit(shape, learner.SUM), self._evaluate(shape)]
        return tuple(out)

    def work(self, ctx, out):
        return sum(len(out[k].losses) for k in out if ".fit_" in k)

    def fingerprint(self, ctx, out):
        fp = {}
        for shape in self.SHAPES:
            fp.update(checks.graph_fingerprint(ctx["shapes"][shape]["graph"], f"{shape}.host"))
            fp[f"{shape}.traces"] = checks.exact(len(out[f"{shape}.reconstruct"]))
            for form in (learner.MEAN, learner.SUM):
                fp[f"{shape}.losses_{form}"] = checks.close_rel(out[f"{shape}.fit_{form}"].losses)
            report, (accuracy, majority, counts) = out[f"{shape}.evaluate"]
            fp[f"{shape}.accuracy"] = checks.close_rel([accuracy, majority])
            fp[f"{shape}.counts"] = checks.exact([counts["active_nonseeds"], counts["boundary"]])
            fp[f"{shape}.report"] = checks.close_rel([
                report[part][key] for part in ("train", "test")
                for key in ("active_nonseeds", "boundary")
            ])
        return fp


def _large_cascades(g, count, min_members, master):
    """The first ``count`` self-propagation cascades from core seeds that
    reach ``min_members`` nodes.

    A fixed number of large traces keeps the learner's work per gradient
    evaluation steady across workload seeds; taking whatever a fixed number
    of runs gives would let the one run in eight that dies move it.
    """
    core = np.flatnonzero(g.segments == netgen.CORE)
    rng = np.random.default_rng(derive_seed(master, "starts"))
    records = []
    for attempt in range(50 * count):
        if len(records) == count:
            return records
        v = int(rng.choice(core))
        rec = updyn.run_cascade(g, updyn.self_propagation(g, v), [v], updyn.SimParams(),
                                derive_seed(master, attempt))
        if rec.final_spread >= min_members:
            records.append(rec)
    raise RuntimeError(f"only {len(records)} of {count} cascades reached {min_members} nodes")


def _write_logs(tmp: Path, shape, g, records):
    """Trust and rating logs for simulated cascades; returns their paths and
    the member set expected for every product with two or more adopters."""
    trust_path = tmp / f"{shape}_trust.tsv"
    ratings_path = tmp / f"{shape}_ratings.tsv"
    with open(trust_path, "w") as fh:
        for a, b in g.raw.edges:
            fh.write(f"{a}\t{b}\n{b}\t{a}\n")
    expected = {}
    with open(ratings_path, "w") as fh:
        for idx, rec in enumerate(records):
            product = f"{shape}{idx}"
            members = np.flatnonzero(rec.activation_time >= 0)
            for v in members:
                fh.write(f"{v}\t{product}\t{rec.activation_time[v]}\n")
            if len(members) >= 2:
                expected[product] = frozenset(str(v) for v in members)
    return trust_path, ratings_path, expected


# ---------------------------------------------------------------------------
# graph_pipeline


class GraphPipeline(Workload):
    """The README chain through ``cli.dispatch``: netgen, simulate with drift,
    analyze, then the exact diameter of the loaded graph."""

    name = "graph_pipeline"
    work_unit = "cascades"

    def setup(self, seed, workdir):
        ctx = {"seed": seed, "tmp": scratch_dir(workdir)}
        # warm the CLI path on a small graph so lazy imports and first-call
        # costs land in set-up, not in the first timed iteration
        s = self.size
        warm = self._chain(ctx, "warm", s["warm_n"], derive_seed(seed, "graph_pipeline", "warm"))
        for argv in warm:
            if dispatch_quietly(argv) != 0:
                raise RuntimeError(f"warm-up command failed: {argv[0]}")
        return ctx

    def teardown(self, ctx):
        shutil.rmtree(ctx["tmp"], ignore_errors=True)

    def _paths(self, ctx, tag):
        d = ctx["tmp"] / tag
        d.mkdir(exist_ok=True)
        return d / "graph.json", d / "runs.jsonl", d / "report.json"

    def _chain(self, ctx, tag, n, gseed, hub=0):
        s = self.size
        graph, runs, report = self._paths(ctx, tag)
        return (
            ["netgen", "--nodes", str(n), "--attach", str(s["r"]), "--embed-dim", str(s["k"]),
             "--seed", str(gseed), "--out", str(graph)],
            ["simulate", "--graph", str(graph), "--seeds", str(hub), "--prop", "self",
             "--lambda", str(DRIFT), "--runs", str(s["runs"]), "--seed", str(gseed),
             "--out", str(runs)],
            ["analyze", "--runs", str(runs), "--graph", str(graph), "--report", str(report)],
        )

    def _gseed(self, ctx, it):
        return derive_seed(ctx["seed"], "graph_pipeline", it)

    def _netgen(self, ctx, it, out):
        argv = self._chain(ctx, f"it{it}", self.size["n"], self._gseed(ctx, it))[0]
        return dispatch_quietly(argv)

    def _load(self, ctx, it, out):
        return netgen.load_graph(self._paths(ctx, f"it{it}")[0])

    def _simulate(self, ctx, it, out):
        out["hub"] = _hub(out["load"])
        argv = self._chain(ctx, f"it{it}", self.size["n"], self._gseed(ctx, it), out["hub"])[1]
        return dispatch_quietly(argv)

    def _analyze(self, ctx, it, out):
        return dispatch_quietly(self._chain(ctx, f"it{it}", self.size["n"], self._gseed(ctx, it))[2])

    def _diameter(self, ctx, it, out):
        return netgen.diameter(out["load"].raw)

    def _check_rc(self, label):
        return lambda c, i, o, rc: [] if rc == 0 else [f"{label}: exit status {rc}"]

    def _check_load(self, ctx, it, out, g):
        s = self.size
        problems = []
        norms = np.linalg.norm(g.features.rows, axis=1)
        if not np.all(np.abs(norms - 1.0) <= checks.FEATURE_TOL):
            problems.append("graph: feature rows are not unit norm")
        grown = _reference_pa(s["n"], s["r"], self._gseed(ctx, it))
        if not np.array_equal(grown.edges, g.raw.edges):
            problems.append("graph: save/load round trip changed the edges")
        return problems

    def _records(self, ctx, it):
        with open(self._paths(ctx, f"it{it}")[1]) as fh:
            return [json.loads(line) for line in fh if line.strip()]

    def _check_simulate(self, ctx, it, out, rc):
        if rc != 0:
            return [f"simulate: exit status {rc}"]
        problems = []
        records = self._records(ctx, it)
        if len(records) != self.size["runs"]:
            problems.append(f"simulate: {len(records)} records")
        for j, rec in enumerate(records):
            activated = sum(t is not None for t in rec["activation_time"])
            if rec["final_spread"] != activated:
                problems.append(f"simulate[{j}]: final_spread {rec['final_spread']} != {activated}")
            if rec["seed_set"] != [out["hub"]] or rec["activation_time"][out["hub"]] != 0:
                problems.append(f"simulate[{j}]: hub {out['hub']} is not the active seed")
        out["records"] = records
        return problems

    def _check_analyze(self, ctx, it, out, rc):
        if rc != 0:
            return [f"analyze: exit status {rc}"]
        with open(self._paths(ctx, f"it{it}")[2]) as fh:
            out["report"] = json.load(fh)
        spreads = [r["final_spread"] for r in out["records"]]
        problems = []
        if out["report"]["n_runs"] != len(spreads):
            problems.append("analyze: run count differs from simulate")
        if abs(out["report"]["spread_mean"] - float(np.mean(spreads))) > 1e-9:
            problems.append("analyze: spread_mean differs from the records")
        return problems

    def _check_diameter(self, ctx, it, out, d):
        return [] if 1 <= d < self.size["n"] else [f"diameter: {d} outside [1, n)"]

    @property
    def steps(self):
        return (
            Step("netgen", self._netgen, self._check_rc("netgen")),
            Step("load", self._load, self._check_load),
            Step("simulate", self._simulate, self._check_simulate),
            Step("analyze", self._analyze, self._check_analyze),
            Step("diameter", self._diameter, self._check_diameter),
        )

    def work(self, ctx, out):
        return len(out["records"])

    def fingerprint(self, ctx, out):
        fp = checks.graph_fingerprint(out["load"])
        times = [[-1 if t is None else t for t in r["activation_time"]] for r in out["records"]]
        fp["simulate.activation_time"] = checks.exact(checks.digest(times))
        fp["simulate.spreads"] = checks.exact([r["final_spread"] for r in out["records"]])
        report = out["report"]
        fp["analyze.histogram"] = checks.exact(report["spread_histogram"]["counts"])
        fp["analyze.stats"] = checks.close_rel([
            report["spread_mean"], report["virality_frequency"],
            report["tipping"]["mean"], report["time_to_virality"]["mean"],
        ])
        fp["diameter"] = checks.exact(int(out["diameter"]))
        return fp


# bound before any tracer patches the module, so the round-trip check adds
# no spans to the traced run
_reference_pa = netgen.generate_pa


WORKLOADS = {cls.name: cls for cls in (McSweep, Optimize, LearnFit, GraphPipeline)}
