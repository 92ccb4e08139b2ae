"""What the traced run wraps, and how its spans become per-layer metrics.

Layers are the package modules. Each public function listed in ``PLAN`` is
timed from outside by patching its module attribute. ``updyn.step``,
``updyn.init_state`` and ``learner.boundary_nodes`` run thousands of times
per second, so they are counters (calls and seconds) rather than spans.
"""

from __future__ import annotations

import logging

import numpy as np

from contagion import analytics, baselines, cli, experiments, learner, netgen, optimizer, updyn

from tracer import median, self_times, tail_percentile

LAYERS = ("netgen", "updyn", "baselines", "analytics", "experiments", "learner", "optimizer", "cli")
MODULES = (netgen, updyn, baselines, analytics, experiments, learner, optimizer, cli)

# per-layer metric -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "netgen.generate_pa_s": ("s", "lower", "wall_s on graph_pipeline; setup_s on the others"),
    "netgen.spectral_embed_s": ("s", "lower", "wall_s on graph_pipeline; setup_s on the others"),
    "netgen.assign_edge_weights_s": ("s", "lower", "wall_s on graph_pipeline; setup_s on the others"),
    "netgen.diameter_s": ("s", "lower", "wall_s on graph_pipeline"),
    "netgen.save_graph_s": ("s", "lower", "wall_s on graph_pipeline"),
    "netgen.load_graph_s": ("s", "lower", "wall_s on graph_pipeline"),
    "netgen.max_residual": ("norm", "lower", "none (a correctness gauge)"),
    "updyn.run_cascade_ms_p50": ("ms", "lower", "work_per_s on mc_sweep and optimize"),
    "updyn.run_cascade_ms_p90": ("ms", "lower", "work_per_s on mc_sweep and optimize"),
    "updyn.step_us_mean": ("us", "lower", "work_per_s on mc_sweep and optimize"),
    "updyn.steps": ("count", "lower", "work_per_s on mc_sweep and optimize"),
    "updyn.idle_step_frac": ("frac", "lower", "work_per_s on mc_sweep and optimize"),
    "updyn.draws": ("count", "lower", "work_per_s on mc_sweep and optimize"),
    "updyn.useful_draw_ratio": ("ratio", "higher", "work_per_s on mc_sweep and optimize"),
    "updyn.drift_cascade_ms_p50": ("ms", "lower", "wall_s on graph_pipeline"),
    "updyn.init_state_calls": ("count", "lower", "wall_s on optimize"),
    "updyn.init_state_s": ("s", "lower", "wall_s on optimize"),
    "updyn.hit_cap_runs": ("count", "lower", "none (count only)"),
    "experiments.run_batch_self_s": ("s", "lower", "wall_s on mc_sweep"),
    "experiments.tasks": ("count", "lower", "wall_s on mc_sweep"),
    "baselines.run_ic_ms_p50": ("ms", "lower", "work_per_s on mc_sweep"),
    "baselines.run_ic_ms_p90": ("ms", "lower", "work_per_s on mc_sweep"),
    "baselines.run_lt_ms_p50": ("ms", "lower", "work_per_s on mc_sweep"),
    "baselines.run_kcomplex_ms_p50": ("ms", "lower", "work_per_s on mc_sweep"),
    "analytics.self_s": ("s", "lower", "wall_s on mc_sweep and graph_pipeline"),
    "learner.nll_and_grad_ms_p50": ("ms", "lower", "work_per_s on learn_fit"),
    "learner.nll_and_grad_ms_p90": ("ms", "lower", "work_per_s on learn_fit"),
    "learner.boundary_nodes_frac": ("frac", "lower", "work_per_s on learn_fit"),
    "learner.terms": ("count", "lower", "work_per_s on learn_fit"),
    "learner.lr_halvings": ("count", "lower", "work_per_s on learn_fit"),
    "learner.reconstruct_traces_s": ("s", "lower", "wall_s on learn_fit"),
    "learner.evaluate_s": ("s", "lower", "wall_s on learn_fit"),
    "optimizer.estimate_spread_ms_p50": ("ms", "lower", "work_per_s on optimize"),
    "optimizer.estimate_spread_ms_p90": ("ms", "lower", "work_per_s on optimize"),
    "optimizer.evaluations": ("count", "lower", "work_per_s on optimize"),
    "optimizer.cache_hit_ratio": ("ratio", "higher", "work_per_s on optimize"),
    "optimizer.dp_policy_s": ("s", "lower", "wall_s on optimize"),
    "optimizer.build_candidate_pool_s": ("s", "lower", "wall_s on optimize"),
    "cli.netgen_s": ("s", "lower", "wall_s on graph_pipeline"),
    "cli.simulate_s": ("s", "lower", "wall_s on graph_pipeline"),
    "cli.analyze_s": ("s", "lower", "wall_s on graph_pipeline"),
    **{f"{layer}.self_s": ("s", "lower", "wall_s on the workloads that call it")
       for layer in LAYERS if layer != "analytics"},
    "bench.wall_s": ("s", "lower", "none (traced wall time per iteration)"),
    "bench.remainder_s": ("s", "lower", "none (timed time outside every layer span)"),
    "bench.tracing_overhead_frac": ("frac", "lower", "none"),
}

SPANS = {
    netgen: ("build_graph", "generate_pa", "spectral_embed", "assign_edge_weights", "diameter",
             "save_graph", "load_graph"),
    baselines: ("run_ic", "run_lt", "run_kcomplex"),
    analytics: ("detect_virality", "ttv_from_new_per_step", "time_to_virality", "tipping_point",
                "spread_histogram", "spearman", "kendall_tau"),
    experiments: ("run_batch", "rq1_spread_distribution", "rq2_growth_curves", "rq3_size_scaling",
                  "rq4_param_sweep", "rq5_affinity_sweep"),
    learner: ("reconstruct_traces", "split_traces", "init_params", "fit", "evaluate",
              "activation_state_accuracy", "traces_from_records"),
    optimizer: ("build_candidate_pool", "estimate_spread", "beam_search", "dp_policy"),
    cli: ("dispatch", "build_parser", "cmd_netgen", "cmd_simulate", "cmd_baseline", "cmd_analyze",
          "cmd_experiment", "cmd_learn", "cmd_learn_eval", "cmd_optimize", "cmd_plot"),
}


def _span(name, after=None):
    return lambda tracer, fn: tracer.span_wrapper(fn, name, after)


def _counter(name, before=None, after=None):
    return lambda tracer, fn: tracer.counter_wrapper(fn, name, before, after)


def _after_embed(tracer, args, kwargs, features):
    tracer.values["netgen.max_residual"].append(features.max_residual)


def _cascade_name(args, kwargs):
    params = args[3] if len(args) > 3 else kwargs["p"]
    return "updyn.run_cascade.drift" if params.drift > 0.0 else "updyn.run_cascade"


def _after_cascade(tracer, args, kwargs, rec):
    tracer.tallies["updyn.hit_cap_runs"] += rec.hit_cap


def _before_step(tracer, args, kwargs):
    # the Bernoulli draws this step will make: its eligible set
    state, params = args[0], args[3]
    if params.require_contact:
        tracer.tallies["updyn.draws"] += int(np.count_nonzero(~state.active & (state.active_nbr_count > 0)))
    else:
        tracer.tallies["updyn.draws"] += int(np.count_nonzero(~state.active))


def _after_step(tracer, args, kwargs, new):
    tracer.tallies["updyn.activations"] += new
    tracer.tallies["updyn.idle_steps"] += new == 0


def _after_batch(tracer, args, kwargs, summaries):
    tracer.tallies["experiments.tasks"] += len(summaries)


def _after_nll(tracer, args, kwargs, result):
    traces = args[0]
    tracer.tallies["learner.traces"] += len(traces)
    tracer.tallies["learner.member_terms"] += sum(len(t.members) for t in traces)


def _after_boundary(tracer, args, kwargs, nodes):
    if tracer.enclosing() == "learner.nll_and_grad":
        tracer.tallies["learner.boundary_items"] += len(nodes)


def _after_beam(tracer, args, kwargs, res):
    pool, cfg = args[2], args[3]
    tracer.tallies["optimizer.evaluations"] += res.evaluations
    tracer.tallies["optimizer.requests"] += len(pool) + cfg.rounds * cfg.width * cfg.spawn


def plan():
    """(module, attribute, make_wrapper) for every wrapped function."""
    out = []
    for module, names in SPANS.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for name in names:
            after = _after_embed if name == "spectral_embed" else None
            after = _after_batch if name == "run_batch" else after
            after = _after_beam if name == "beam_search" else after
            out.append((module, name, _span(f"{layer}.{name}", after)))
    out += [
        (updyn, "run_cascade", _span(_cascade_name, _after_cascade)),
        (updyn, "step", _counter("updyn.step", _before_step, _after_step)),
        (updyn, "init_state", _counter("updyn.init_state")),
        (learner, "nll_and_grad", _span("learner.nll_and_grad", _after_nll)),
        (learner, "boundary_nodes", _counter("learner.boundary_nodes", after=_after_boundary)),
    ]
    return out


class HalvingCounter(logging.Handler):
    """Counts the learner's learning-rate halvings from its warning."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("loss rising"):
            self.count += 1


def layer_metrics(tracer, mark: int, iterations: int, traced_wall: float, overhead: float,
                  halvings: int):
    """Per-layer metrics from a traced run.

    Spans before ``mark`` come from set-up. Per-call figures (``*_s`` means
    and ``*_ms_pNN`` percentiles) use the timed calls of a function, or its
    set-up calls when it has no timed ones; self-time sums cover the timed
    iterations only and are given per iteration. Counters and tallies were
    reset at ``mark``.
    Returns {name: (value, unit, samples, note)}.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    setup_durations, timed_durations = {}, {}
    self_by_name = {}
    for idx, s in enumerate(spans):
        into = timed_durations if idx >= mark else setup_durations
        into.setdefault(s.name, []).append(s.end - s.start)
        self_by_name.setdefault(s.name, []).append((idx, selfs[idx]))
    # per-call figures describe the timed calls where there are any, and the
    # set-up calls of functions that only run in set-up
    durations = {**setup_durations, **timed_durations}

    def per_call(name):
        vals = durations.get(name, [])
        return (sum(vals) / len(vals) if vals else 0.0), len(vals)

    def pct_ms(name, tail):
        vals = [1e3 * d for d in durations.get(name, [])]
        if not tail:
            return median(vals), len(vals), "p50"
        q, value, n = tail_percentile(vals)
        return value, n, f"p{q}"

    timed_self = {}
    for idx in range(mark, len(spans)):
        layer = spans[idx].name.split(".", 1)[0]
        timed_self[layer] = timed_self.get(layer, 0.0) + selfs[idx]
    it = max(iterations, 1)

    def timed_self_of(name):
        return sum(v for idx, v in self_by_name.get(name, []) if idx >= mark) / it

    def count(name):
        calls = sum(c[0] for (n, _), c in tracer.counters.items() if n == name)
        secs = sum(c[1] for (n, _), c in tracer.counters.items() if n == name)
        return calls, secs

    out = {}

    def put(name, value, samples, note=""):
        unit = PER_LAYER[name][0]
        out[name] = (float(value), unit, int(samples), note)

    for fn in ("generate_pa", "spectral_embed", "assign_edge_weights", "diameter", "save_graph",
               "load_graph"):
        put(f"netgen.{fn}_s", *per_call(f"netgen.{fn}"), "mean per call")
    residuals = tracer.values.get("netgen.max_residual", [])
    put("netgen.max_residual", max(residuals, default=0.0), len(residuals), "max over embeddings")

    for label, tail in (("p50", False), ("p90", True)):
        value, n, q = pct_ms("updyn.run_cascade", tail)
        put(f"updyn.run_cascade_ms_{label}", value, n, q)
    steps, step_s = count("updyn.step")
    t = tracer.tallies
    put("updyn.step_us_mean", 1e6 * step_s / steps if steps else 0.0, steps)
    put("updyn.steps", steps / it, steps, "per iteration")
    put("updyn.idle_step_frac", t["updyn.idle_steps"] / steps if steps else 0.0, steps)
    put("updyn.draws", t["updyn.draws"] / it, steps, "per iteration")
    put("updyn.useful_draw_ratio",
        t["updyn.activations"] / t["updyn.draws"] if t["updyn.draws"] else 0.0, steps)
    value, n, q = pct_ms("updyn.run_cascade.drift", False)
    put("updyn.drift_cascade_ms_p50", value, n, q)
    calls, secs = count("updyn.init_state")
    put("updyn.init_state_calls", calls / it, calls, "per iteration")
    put("updyn.init_state_s", secs / it, calls, "per iteration")
    put("updyn.hit_cap_runs", t["updyn.hit_cap_runs"] / it, len(durations.get("updyn.run_cascade", [])),
        "per iteration")

    put("experiments.run_batch_self_s", timed_self_of("experiments.run_batch"),
        len(durations.get("experiments.run_batch", [])), "per iteration")
    put("experiments.tasks", t["experiments.tasks"] / it, len(durations.get("experiments.run_batch", [])),
        "per iteration")

    for fn, tail in (("run_ic", False), ("run_ic", True), ("run_lt", False), ("run_kcomplex", False)):
        value, n, q = pct_ms(f"baselines.{fn}", tail)
        put(f"baselines.{fn}_ms_{'p90' if tail else 'p50'}", value, n, q)

    for label, tail in (("p50", False), ("p90", True)):
        value, n, q = pct_ms("learner.nll_and_grad", tail)
        put(f"learner.nll_and_grad_ms_{label}", value, n, q)
    b_calls, b_secs = 0, 0.0
    for (name, parent), (c, s) in tracer.counters.items():
        if name == "learner.boundary_nodes" and parent == "learner.nll_and_grad":
            b_calls, b_secs = b_calls + c, b_secs + s
    timed_nll = sum(spans[i].end - spans[i].start for i in range(mark, len(spans))
                    if spans[i].name == "learner.nll_and_grad")
    put("learner.boundary_nodes_frac", b_secs / timed_nll if timed_nll else 0.0, b_calls)
    n_nll = sum(1 for i in range(mark, len(spans)) if spans[i].name == "learner.nll_and_grad")
    boundary_terms = t["learner.boundary_items"] * t["learner.traces"] / b_calls if b_calls else 0.0
    put("learner.terms", (t["learner.member_terms"] + boundary_terms) / n_nll if n_nll else 0.0, n_nll,
        "per gradient evaluation")
    put("learner.lr_halvings", halvings / it, halvings, "per iteration")
    put("learner.reconstruct_traces_s", *per_call("learner.reconstruct_traces"), "mean per call")
    put("learner.evaluate_s", *per_call("learner.evaluate"), "mean per call")

    for label, tail in (("p50", False), ("p90", True)):
        value, n, q = pct_ms("optimizer.estimate_spread", tail)
        put(f"optimizer.estimate_spread_ms_{label}", value, n, q)
    put("optimizer.evaluations", t["optimizer.evaluations"] / it, len(durations.get("optimizer.beam_search", [])),
        "per iteration")
    req = t["optimizer.requests"]
    put("optimizer.cache_hit_ratio", 1.0 - t["optimizer.evaluations"] / req if req else 0.0, req)
    put("optimizer.dp_policy_s", *per_call("optimizer.dp_policy"), "mean per call")
    put("optimizer.build_candidate_pool_s", *per_call("optimizer.build_candidate_pool"), "mean per call")

    for cmd in ("netgen", "simulate", "analyze"):
        pairs = self_by_name.get(f"cli.cmd_{cmd}", [])
        vals = [v for idx, v in pairs if idx >= mark] or [v for _, v in pairs]
        put(f"cli.{cmd}_s", sum(vals) / len(vals) if vals else 0.0, len(vals), "self time per call")

    for layer in LAYERS:
        put(f"{layer}.self_s", timed_self.get(layer, 0.0) / it, iterations, "per iteration")
    covered = sum(timed_self.values())
    put("bench.wall_s", traced_wall / it, iterations, "per iteration")
    put("bench.remainder_s", (traced_wall - covered) / it, iterations, "per iteration")
    put("bench.tracing_overhead_frac", overhead, iterations, "traced vs untraced, same iterations")
    return out
