"""Data-driven threshold propagation model fitted on cascade traces.

A trace is an ordered set of adopters plus the directed influence edges
reconstructed among them. The model scores each node with a logistic
threshold unit over signed influence weights from active vs inactive
in-neighbors (sum or degree-mean aggregation), and is fitted by projected
gradient descent on the negative log-likelihood of trace members and
cascade-boundary nodes.
"""

from __future__ import annotations

import json
import logging
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter

logger = logging.getLogger(__name__)

SUM = "sum"
MEAN = "mean"
SUM_BOX = 0.1
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class CascadeTrace:
    """One observed diffusion: adopters in activation order plus influence edges."""

    trace_id: str
    members: tuple
    edges: tuple  # (influencer, influenced) pairs, both members
    graph_ref: str | None = None

    def __post_init__(self):
        rank = {v: i for i, v in enumerate(self.members)}
        if len(rank) != len(self.members):
            raise InvalidParameter("trace", f"{self.trace_id}: duplicate members")
        for src, dst in self.edges:
            if src not in rank or dst not in rank:
                raise InvalidParameter(
                    "trace", f"{self.trace_id}: edge {src}->{dst} leaves the member set"
                )
            if rank[src] >= rank[dst]:
                raise InvalidParameter(
                    "trace", f"{self.trace_id}: influencer {src} does not precede {dst}"
                )

    def parents(self) -> dict:
        out = defaultdict(list)
        for src, dst in self.edges:
            out[dst].append(src)
        return out


@dataclass(frozen=True)
class InfluenceGraph:
    """Directed host graph: in_nbrs[v] lists the nodes that can influence v."""

    in_nbrs: dict
    name: str | None = None

    @classmethod
    def from_trust_edges(cls, pairs, name=None) -> "InfluenceGraph":
        """Build from (truster, trustee) pairs; the trustee influences the truster."""
        in_nbrs = defaultdict(list)
        seen = set()
        for truster, trustee in pairs:
            if truster == trustee or (truster, trustee) in seen:
                continue
            seen.add((truster, trustee))
            in_nbrs[truster].append(trustee)
            in_nbrs.setdefault(trustee, in_nbrs[trustee])
        return cls(in_nbrs={k: tuple(v) for k, v in in_nbrs.items()}, name=name)

    @classmethod
    def from_weighted_graph(cls, g, name=None) -> "InfluenceGraph":
        in_nbrs = {
            v: tuple(int(w) for w in g.raw.neighbors(v)) for v in range(g.n)
        }
        return cls(in_nbrs=in_nbrs, name=name)

    def nodes(self):
        return self.in_nbrs.keys()

    def in_neighbors(self, v):
        return self.in_nbrs.get(v, ())

    def directed_edges(self):
        for dst, srcs in self.in_nbrs.items():
            for src in srcs:
                yield (src, dst)


@dataclass
class ThresholdModelParams:
    """Learnable influence weights and biases with box constraints."""

    aggregation: str
    influence: dict  # (src, dst) -> weight
    bias: dict  # node -> bias
    upper: float

    def copy(self) -> "ThresholdModelParams":
        return ThresholdModelParams(
            aggregation=self.aggregation,
            influence=dict(self.influence),
            bias=dict(self.bias),
            upper=self.upper,
        )

    def project(self) -> None:
        """Clamp every parameter into its box, in place."""
        for key, val in self.influence.items():
            self.influence[key] = min(self.upper, max(0.0, val))
        for key, val in self.bias.items():
            self.bias[key] = min(self.upper, max(0.0, val))


def init_params(graph: InfluenceGraph, aggregation: str = SUM, rng_seed: int = 0) -> ThresholdModelParams:
    """Small-Gaussian initialization (mean 0.05, sd 0.01) clamped to the box."""
    if aggregation not in (SUM, MEAN):
        raise InvalidParameter("form", f"unknown aggregation {aggregation!r}")
    rng = np.random.default_rng(int(rng_seed))
    upper = SUM_BOX if aggregation == SUM else math.inf
    params = ThresholdModelParams(aggregation=aggregation, influence={}, bias={}, upper=upper)
    for dst in sorted(graph.nodes(), key=str):
        for src in graph.in_neighbors(dst):
            params.influence[(src, dst)] = float(rng.normal(0.05, 0.01))
        params.bias[dst] = float(rng.normal(0.05, 0.01))
    params.project()
    return params


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _raw_score(v, active_set, graph: InfluenceGraph, params: ThresholdModelParams) -> float:
    in_nbrs = graph.in_neighbors(v)
    signed = 0.0
    for w in in_nbrs:
        weight = params.influence.get((w, v), 0.0)
        signed += weight if w in active_set else -weight
    if params.aggregation == MEAN and in_nbrs:
        signed /= len(in_nbrs)
    return signed + params.bias.get(v, 0.0)


def predict_activation(v, active_set, graph: InfluenceGraph, params: ThresholdModelParams) -> float:
    """Activation probability of v given the currently active set."""
    return _sigmoid(_raw_score(v, set(active_set), graph, params))


def boundary_nodes(trace: CascadeTrace, graph: InfluenceGraph) -> list:
    """Non-members with at least one member in-neighbor, in deterministic order."""
    members = set(trace.members)
    out = []
    for v in sorted(graph.nodes(), key=str):
        if v in members:
            continue
        if any(w in members for w in graph.in_neighbors(v)):
            out.append(v)
    return out


def resolve_boundary_weight(n_members, n_boundary, w_boundary):
    """Balanced mode weights boundary terms so both categories carry the
    same total mass as the member terms."""
    if w_boundary == "balanced":
        return n_members / n_boundary if n_boundary else 0.0
    return float(w_boundary)


def trace_nll(trace: CascadeTrace, graph: InfluenceGraph, params: ThresholdModelParams,
              w_boundary="balanced") -> float:
    """Negative log-likelihood of one trace.

    Member v is scored against its influence parents as the active context;
    boundary nodes are scored against the full member set. Probabilities are
    clamped to [1e-12, 1 - 1e-12] before the log.
    """
    loss, _, _, _ = _trace_terms(trace, graph, params, w_boundary)
    return loss


def _trace_terms(trace, graph, params, w_boundary):
    boundary = boundary_nodes(trace, graph)
    wb = resolve_boundary_weight(len(trace.members), len(boundary), w_boundary)
    parents = trace.parents()
    clamped = 0
    loss = 0.0
    member_scores = []
    for v in trace.members:
        p = predict_activation(v, parents.get(v, ()), graph, params)
        member_scores.append((v, frozenset(parents.get(v, ())), p))
        if p < PROB_FLOOR:
            p = PROB_FLOOR
            clamped += 1
        loss -= math.log(p)
    boundary_scores = []
    members = frozenset(trace.members)
    for u in boundary:
        p = predict_activation(u, members, graph, params)
        boundary_scores.append((u, members, p))
        if p > 1.0 - PROB_FLOOR:
            p = 1.0 - PROB_FLOOR
            clamped += 1
        loss -= wb * math.log(1.0 - p)
    if clamped:
        logger.warning("trace %s: clamped %d saturated probabilities", trace.trace_id, clamped)
    return loss, member_scores, boundary_scores, wb


def nll_and_grad(traces, graph: InfluenceGraph, params: ThresholdModelParams,
                 w_boundary="balanced"):
    """Total NLL over traces plus analytic gradients for influence and bias."""
    grad_i = defaultdict(float)
    grad_b = defaultdict(float)
    total = 0.0
    for trace in traces:
        loss, member_scores, boundary_scores, wb = _trace_terms(trace, graph, params, w_boundary)
        total += loss
        for v, active, p in member_scores:
            dz = p - 1.0  # d(-log sigma(z))/dz
            _accumulate(grad_i, grad_b, graph, params, v, active, dz)
        for u, active, p in boundary_scores:
            dz = wb * p  # d(-log(1 - sigma(z)))/dz
            _accumulate(grad_i, grad_b, graph, params, u, active, dz)
    return total, dict(grad_i), dict(grad_b)


def _accumulate(grad_i, grad_b, graph, params, v, active_set, dz):
    in_nbrs = graph.in_neighbors(v)
    scale = 1.0
    if params.aggregation == MEAN and in_nbrs:
        scale = 1.0 / len(in_nbrs)
    for w in in_nbrs:
        sign = 1.0 if w in active_set else -1.0
        grad_i[(w, v)] += dz * sign * scale
    grad_b[v] += dz


def prefix_subcascades(trace: CascadeTrace) -> list:
    """Proper prefixes of the activation order with at least two members."""
    out = []
    for m in range(2, len(trace.members)):
        members = trace.members[:m]
        keep = set(members)
        edges = tuple(e for e in trace.edges if e[0] in keep and e[1] in keep)
        out.append(
            CascadeTrace(
                trace_id=f"{trace.trace_id}#prefix{m}",
                members=members,
                edges=edges,
                graph_ref=trace.graph_ref,
            )
        )
    return out


def augment_with_prefixes(traces) -> list:
    out = []
    for trace in traces:
        out.append(trace)
        out.extend(prefix_subcascades(trace))
    return out


@dataclass(frozen=True)
class FitResult:
    params: ThresholdModelParams
    losses: tuple  # losses[i] = NLL after i updates
    lr_history: tuple


def fit(traces, graph: InfluenceGraph, init: ThresholdModelParams, steps: int,
        lr: float, w_boundary="balanced", augment: bool = False) -> FitResult:
    """Projected gradient descent on the cascade NLL.

    Each iteration takes a full-batch gradient step then clamps parameters
    into their box. If the loss rises for 10 consecutive iterations the
    learning rate is halved. A non-finite loss aborts.
    """
    if lr <= 0:
        raise InvalidParameter("lr", f"learning rate must be > 0, got {lr}")
    work = augment_with_prefixes(traces) if augment else list(traces)
    params = init.copy()
    losses = []
    lr_history = []
    loss, gi, gb = nll_and_grad(work, graph, params, w_boundary)
    losses.append(loss)
    rising = 0
    for it in range(steps):
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite loss at iteration {it}")
        for key, grad in gi.items():
            params.influence[key] = params.influence.get(key, 0.0) - lr * grad
        for key, grad in gb.items():
            params.bias[key] = params.bias.get(key, 0.0) - lr * grad
        params.project()
        lr_history.append(lr)
        new_loss, gi, gb = nll_and_grad(work, graph, params, w_boundary)
        if new_loss > loss:
            rising += 1
            if rising >= 10:
                lr /= 2.0
                rising = 0
                logger.warning("loss rising for 10 iterations; lr halved to %g", lr)
        else:
            rising = 0
        loss = new_loss
        losses.append(loss)
    return FitResult(params=params, losses=tuple(losses), lr_history=tuple(lr_history))


def reconstruct_traces(trust_edges, ratings) -> list:
    """Cascade traces from trust relations and time-stamped adoption events.

    ``trust_edges`` holds (truster, trustee) pairs; ``ratings`` holds
    (user, product, time) triples. For each product with at least two
    adopters, members are ordered by (time, user) and an influence edge
    v -> u is added whenever u trusts v and v adopted strictly earlier.
    Duplicate (user, product) events keep the earliest time.
    """
    trusts = defaultdict(set)  # user -> set of users they trust
    for truster, trustee in trust_edges:
        if truster != trustee:
            trusts[truster].add(trustee)

    first_time = {}
    for user, product, time in ratings:
        key = (user, product)
        t = int(time)
        if key not in first_time or t < first_time[key]:
            first_time[key] = t

    by_product = defaultdict(list)
    for (user, product), t in first_time.items():
        by_product[product].append((t, user))

    traces = []
    for product in sorted(by_product, key=str):
        events = sorted(by_product[product], key=lambda e: (e[0], str(e[1])))
        if len(events) < 2:
            continue
        members = tuple(user for _, user in events)
        times = {user: t for t, user in events}
        edges = []
        for u in members:
            for v in trusts.get(u, ()):
                if v in times and times[v] < times[u]:
                    edges.append((v, u))
        traces.append(
            CascadeTrace(trace_id=str(product), members=members, edges=tuple(edges))
        )
    return traces


def traces_from_records(records, g, id_prefix="run") -> list:
    """Traces from simulated cascade records on an undirected host graph.

    Members follow activation time (ties by node id); an influence edge runs
    from each strictly earlier activated neighbor to the later one.
    """
    traces = []
    for idx, rec in enumerate(records):
        order = [
            (int(t), int(v))
            for v, t in enumerate(rec.activation_time)
            if t >= 0
        ]
        if len(order) < 2:
            continue
        order.sort()
        members = tuple(v for _, v in order)
        times = {v: t for t, v in order}
        edges = []
        for v in members:
            for w in g.raw.neighbors(v):
                w = int(w)
                if w in times and times[w] < times[v]:
                    edges.append((w, v))
        traces.append(
            CascadeTrace(
                trace_id=f"{id_prefix}{idx}",
                members=members,
                edges=tuple(sorted(edges, key=lambda e: (times[e[1]], str(e[1]), str(e[0])))),
            )
        )
    return traces


def split_traces(traces, test_fraction: float = 0.2, rng_seed: int = 0):
    """Deterministic by-trace train/test split."""
    order = sorted(range(len(traces)), key=lambda i: traces[i].trace_id)
    rng = np.random.default_rng(int(rng_seed))
    rng.shuffle(order)
    n_test = int(round(test_fraction * len(traces)))
    test_idx = set(order[:n_test])
    train = [traces[i] for i in range(len(traces)) if i not in test_idx]
    test = [traces[i] for i in range(len(traces)) if i in test_idx]
    return train, test


def _category_outcomes(traces, graph, params):
    """Per-category (prediction correctness) streams for accuracy reports."""
    member_hits = []
    boundary_hits = []
    for trace in traces:
        parents = trace.parents()
        members = frozenset(trace.members)
        for v in trace.members:
            if not parents.get(v):
                continue  # seed-like member, nothing to predict from
            p = predict_activation(v, parents[v], graph, params)
            member_hits.append(p > 0.5)  # true state: active
        for u in boundary_nodes(trace, graph):
            p = predict_activation(u, members, graph, params)
            boundary_hits.append(p <= 0.5)  # true state: inactive; ties predict inactive
    return member_hits, boundary_hits


def evaluate(train_traces, test_traces, graph: InfluenceGraph,
             params: ThresholdModelParams) -> dict:
    """Activation-state accuracy for active non-seeds and boundary nodes.

    Empty categories are reported as None rather than zero.
    """
    report = {}
    for name, traces in (("train", train_traces), ("test", test_traces)):
        member_hits, boundary_hits = _category_outcomes(traces, graph, params)
        report[name] = {
            "active_nonseeds": float(np.mean(member_hits)) if member_hits else None,
            "boundary": float(np.mean(boundary_hits)) if boundary_hits else None,
            "n_active_nonseeds": len(member_hits),
            "n_boundary": len(boundary_hits),
        }
    return report


def activation_state_accuracy(traces, graph: InfluenceGraph, params: ThresholdModelParams):
    """Pooled accuracy over active non-seeds plus boundary nodes, with the
    majority-class baseline of the same population."""
    member_hits, boundary_hits = _category_outcomes(traces, graph, params)
    total = len(member_hits) + len(boundary_hits)
    if total == 0:
        raise InvalidParameter("traces", "no evaluable nodes")
    accuracy = (sum(member_hits) + sum(boundary_hits)) / total
    majority = max(len(member_hits), len(boundary_hits)) / total
    return accuracy, majority, {"active_nonseeds": len(member_hits), "boundary": len(boundary_hits)}


def save_model(params: ThresholdModelParams, path) -> None:
    doc = {
        "aggregation": params.aggregation,
        "upper": None if math.isinf(params.upper) else params.upper,
        "I": [[str(src), str(dst), float(w)] for (src, dst), w in sorted(
            params.influence.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
        )],
        "b": [[str(v), float(b)] for v, b in sorted(params.bias.items(), key=lambda kv: str(kv[0]))],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path, int_ids: bool = False) -> ThresholdModelParams:
    """Read a model written by ``save_model``; InvalidParameter naming the
    file when it holds anything else."""
    cast = int if int_ids else str
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if doc["aggregation"] not in (SUM, MEAN):
            raise ValueError(f"unknown aggregation {doc['aggregation']!r}")
        return ThresholdModelParams(
            aggregation=doc["aggregation"],
            influence={(cast(src), cast(dst)): float(w) for src, dst, w in doc["I"]},
            bias={cast(v): float(b) for v, b in doc["b"]},
            upper=math.inf if doc.get("upper") is None else float(doc["upper"]),
        )
    except KeyError as err:
        raise InvalidParameter("model", f"{path}: missing key {err}") from None
    except (TypeError, ValueError) as err:
        raise InvalidParameter("model", f"{path}: {err}") from None


def load_trust_tsv(path) -> list:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise InvalidParameter("trust", f"line {lineno}: expected 2 fields")
            out.append((parts[0], parts[1]))
    return out


def load_ratings_tsv(path) -> list:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise InvalidParameter("ratings", f"line {lineno}: expected 3 fields")
            try:
                t = int(parts[2])
            except ValueError:
                raise InvalidParameter("ratings", f"line {lineno}: timestamp must be an integer")
            out.append((parts[0], parts[1], t))
    return out
