"""Data-driven threshold propagation model fitted on cascade traces.

A trace is an ordered set of adopters plus the directed influence edges
reconstructed among them. The model scores each node with a logistic
threshold unit over signed influence weights from active vs inactive
in-neighbors (sum or degree-mean aggregation), and is fitted by projected
gradient descent on the negative log-likelihood of trace members and
cascade-boundary nodes. Traces are compiled once into a sparse design with a
row per member or boundary node, so the likelihood, its gradient and the
accuracy reports are a few array passes.
"""

from __future__ import annotations

import json
import logging
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import itemgetter, ne

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameter
from .files import open_new

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

    def __post_init__(self):
        rank = dict(zip(self.members, range(len(self.members))))
        if len(rank) != len(self.members):
            raise InvalidParameter("trace", f"{self.trace_id}: duplicate members")
        if self.edges and set(map(len, self.edges)) != {2}:
            raise InvalidParameter("trace", f"{self.trace_id}: edges must be (src, dst) pairs")
        # (2, len(edges)): the member positions of each edge's influencer and
        # influenced node, -1 for a node outside the members; kept for _compile
        ranks = np.fromiter(map(rank.get, chain.from_iterable(self.edges), repeat(-1)),
                            dtype=np.int64, count=2 * len(self.edges)).reshape(-1, 2).T
        bad = np.flatnonzero((ranks.min(axis=0) < 0) | (ranks[0] >= ranks[1]))
        if len(bad):
            src, dst = self.edges[bad[0]]
            if ranks[:, bad[0]].min() < 0:
                raise InvalidParameter(
                    "trace", f"{self.trace_id}: edge {src}->{dst} leaves the member set"
                )
            raise InvalidParameter(
                "trace", f"{self.trace_id}: influencer {src} does not precede {dst}"
            )
        object.__setattr__(self, "_edge_ranks", ranks)

    def parents(self) -> dict:
        out = defaultdict(list)
        for src, dst in self.edges:
            out[dst].append(src)
        return out


@dataclass(frozen=True, eq=False)
class InfluenceGraph:
    """Directed host graph as an in-neighbor CSR over node numbers 0..n-1.

    Node v's in-neighbors, the nodes that can influence it, are the numbers
    ``indices[indptr[v]:indptr[v + 1]]``. Built by ``from_trust_edges`` or
    ``from_weighted_graph``.
    """

    ids: np.ndarray  # number -> node id (object array)
    index: dict  # node id -> number
    indptr: np.ndarray
    indices: np.ndarray  # in-neighbor numbers, row by row
    owner: np.ndarray  # the node whose row holds each entry of ``indices``
    str_order: np.ndarray  # node numbers in ``sorted(ids, key=str)`` order

    @classmethod
    def _from_csr(cls, index: dict, indptr, indices) -> "InfluenceGraph":
        """The graph of the ids in ``index``, numbered 0..n-1 in its order."""
        names = list(map(str, index))
        return cls(
            ids=np.fromiter(index, dtype=object, count=len(index)),
            index=index,
            indptr=indptr,
            indices=indices,
            owner=np.repeat(np.arange(len(index)), np.diff(indptr)),
            str_order=np.array(sorted(range(len(index)), key=names.__getitem__), dtype=np.int64),
        )

    @classmethod
    def from_trust_edges(cls, pairs) -> "InfluenceGraph":
        """Build from (truster, trustee) pairs; the trustee influences the truster.

        Self-trust is skipped. Nodes are numbered in first appearance,
        truster before trustee, and each truster lists its trustees once, in
        first appearance."""
        truster, trustee = _columns(pairs, 2)
        flat = list(chain.from_iterable(compress(zip(truster, trustee), map(ne, truster, trustee))))
        index = dict(zip(dict.fromkeys(flat), count()))
        ends = np.fromiter(map(index.__getitem__, flat), dtype=np.int64,
                           count=len(flat)).reshape(-1, 2)
        key = ends[:, 0] * len(index) + ends[:, 1]
        first = np.sort(np.unique(key, return_index=True)[1])  # a repeated pair's first entry
        dst, src = ends[first].T
        rows = np.argsort(dst, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=len(index)))))
        return cls._from_csr(index, indptr, src[rows])

    @classmethod
    def from_weighted_graph(cls, g) -> "InfluenceGraph":
        """The undirected graph's CSR as it is: ids 0..n-1, each node's
        neighbors its in-neighbors, in ascending order."""
        return cls._from_csr(dict(zip(range(g.n), range(g.n))), g.raw.indptr, g.raw.indices)

    def nodes(self) -> list:
        return self.ids.tolist()

    def in_neighbors(self, v) -> tuple:
        i = self.index.get(v)
        if i is None:
            return ()
        return tuple(self.ids[self.indices[self.indptr[i]:self.indptr[i + 1]]].tolist())


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


def _clip(values: np.ndarray, upper: float) -> np.ndarray:
    """Clamp into [0, upper]; adding 0.0 turns -0.0 into 0.0 as ``project`` does."""
    return np.clip(values, 0.0, upper) + 0.0


def init_params(graph: InfluenceGraph, aggregation: str = SUM, rng_seed: int = 0) -> ThresholdModelParams:
    """Small-Gaussian initialization (mean 0.05, sd 0.01) clamped to the box.

    One draw per parameter, dst by dst in str order: its in-neighbor weights,
    then its bias.
    """
    if aggregation not in (SUM, MEAN):
        raise InvalidParameter("form", f"unknown aggregation {aggregation!r}")
    upper = SUM_BOX if aggregation == SUM else math.inf
    dsts = graph.str_order
    pos, degree = _row_positions(graph.indptr, dsts)
    keys = zip(graph.ids[graph.indices[pos]].tolist(), graph.ids[graph.owner[pos]].tolist())
    draws = _clip(np.random.default_rng(int(rng_seed)).normal(0.05, 0.01, len(pos) + len(dsts)), upper)
    is_bias = np.zeros(len(draws), dtype=bool)
    is_bias[np.cumsum(degree + 1) - 1] = True
    return ThresholdModelParams(
        aggregation=aggregation,
        influence=dict(zip(keys, draws[~is_bias].tolist())),
        bias=dict(zip(graph.ids[dsts].tolist(), draws[is_bias].tolist())),
        upper=upper,
    )


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def predict_activation(v, active_set, graph: InfluenceGraph, params: ThresholdModelParams) -> float:
    """Activation probability of v given the currently active set."""
    active = set(active_set)
    nbrs = graph.in_neighbors(v)
    signed = 0.0
    for w in nbrs:
        weight = params.influence.get((w, v), 0.0)
        signed += weight if w in active else -weight
    if params.aggregation == MEAN and nbrs:
        signed /= len(nbrs)
    return _sigmoid(signed + params.bias.get(v, 0.0))


def boundary_nodes(trace: CascadeTrace, graph: InfluenceGraph) -> list:
    """Non-members with at least one member in-neighbor, in deterministic order."""
    member = np.zeros(len(graph.ids), dtype=bool)
    number = np.fromiter(map(graph.index.get, trace.members, repeat(-1)), dtype=np.int64,
                         count=len(trace.members))
    member[number[number >= 0]] = True
    reached = np.zeros(len(graph.ids), dtype=bool)
    reached[graph.owner[member[graph.indices]]] = True
    return graph.ids[graph.str_order[(reached & ~member)[graph.str_order]]].tolist()


def resolve_boundary_weight(n_members, n_boundary, w_boundary):
    """Balanced mode weights boundary terms so both categories carry the
    same total mass as the member terms."""
    if w_boundary == "balanced":
        return n_members / n_boundary if n_boundary else 0.0
    return float(w_boundary)


@dataclass(frozen=True)
class _Design:
    """Traces compiled into one sparse logistic problem, a row per term.

    Rows run trace by trace: members in member order, then boundary nodes. A
    row scores its node v against an active set: its influence parents for a
    member, every member for a boundary node. ``x`` holds +1 at the columns of
    v's in-edges from active nodes and -1 at its other in-edges, in
    ``in_neighbors`` order, so ``x @ theta`` adds the signed weights in the
    order a walk over v's in-neighbors does.
    """

    x: sp.csr_matrix  # rows x influence_keys, entries +-1
    n_in: np.ndarray  # |N(v)|, or 1.0 where v has no in-neighbors
    label: np.ndarray  # 1.0 for members, 0.0 for boundary nodes
    weight: np.ndarray  # 1.0 for members, the trace's boundary weight otherwise
    bias_col: np.ndarray  # the row node's position in bias_keys
    trace: np.ndarray  # the row's trace number
    has_parent: np.ndarray  # members with at least one influence parent
    influence_keys: list  # (src, dst) per column of x
    bias_keys: list
    trace_ids: list

    def load(self, params: ThresholdModelParams):
        """(theta, bias) arrays over this design's keys; absent keys read 0.0."""
        def read(store, keys):
            return np.array(list(map(store.get, keys, repeat(0.0))), dtype=float)

        return read(params.influence, self.influence_keys), read(params.bias, self.bias_keys)

    def probabilities(self, theta, bias, aggregation):
        z = self.x @ theta
        if aggregation == MEAN:
            z /= self.n_in
        z += bias[self.bias_col]
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def nll(self, p) -> float:
        """Total NLL: each trace's terms summed in row order, then the traces.

        Probabilities are clamped to [1e-12, 1 - 1e-12] before the log, with
        one warning per trace that needed it.
        """
        member = self.label == 1.0
        like = np.where(member, np.maximum(p, PROB_FLOOR), 1.0 - np.minimum(p, 1.0 - PROB_FLOOR))
        per_trace = 0.0 - np.bincount(self.trace, self.weight * np.log(like), len(self.trace_ids))
        clamped = np.bincount(self.trace[np.where(member, p < PROB_FLOOR, p > 1.0 - PROB_FLOOR)],
                              minlength=len(self.trace_ids))
        for t in np.flatnonzero(clamped):
            logger.warning("trace %s: clamped %d saturated probabilities", self.trace_ids[t],
                           int(clamped[t]))
        return float(np.cumsum(per_trace)[-1]) if len(per_trace) else 0.0

    def nll_and_grad(self, theta, bias, aggregation):
        """Total NLL and its gradients in theta and bias."""
        p = self.probabilities(theta, bias, aggregation)
        dz = (p - self.label) * self.weight
        scaled = dz * (1.0 / self.n_in) if aggregation == MEAN else dz
        return self.nll(p), self.x.T @ scaled, np.bincount(self.bias_col, dz, len(self.bias_keys))


def _renumber(ids, size):
    """(the distinct ids in ascending order, each id's position among them)."""
    used = np.zeros(size, dtype=bool)
    used[ids] = True
    return np.flatnonzero(used), (np.cumsum(used) - 1)[ids]


def _find(keys, queries) -> np.ndarray:
    """Position of each query in the sorted array ``keys``, or -1 where it is absent."""
    out = np.full(len(queries), -1, dtype=np.int64)
    if len(keys):
        by_query = np.argsort(queries)
        at = np.searchsorted(keys, queries[by_query])
        hit = keys[np.minimum(at, len(keys) - 1)] == queries[by_query]
        out[by_query[hit]] = at[hit]
    return out


def _row_positions(indptr, rows):
    """(the CSR positions of every entry of ``rows``, row after row; each row's length)."""
    degree = indptr[rows + 1] - indptr[rows]
    offsets = np.repeat(indptr[rows] - np.cumsum(degree) + degree, degree)
    return np.arange(len(offsets)) + offsets, degree


def _host_numbers(graph: InfluenceGraph, ids: list):
    """(the host number of each id, the ids outside the host).

    Ids outside the host are numbered after it, in order of first appearance."""
    number = np.fromiter(map(graph.index.get, ids, repeat(-1)), dtype=np.int64, count=len(ids))
    missing = np.flatnonzero(number < 0)
    outside = [ids[i] for i in missing.tolist()]
    extra = {v: len(graph.ids) + i for i, v in enumerate(dict.fromkeys(outside))}
    number[missing] = list(map(extra.__getitem__, outside))
    return number, list(extra)


def _compile(traces, graph: InfluenceGraph, w_boundary="balanced") -> _Design:
    """The design of ``traces`` on ``graph``; calls ``boundary_nodes`` once per trace."""
    boundary, wb = [], []
    counts = np.zeros((3, len(traces)), dtype=np.int64)  # members, boundary nodes, edges
    for t, trace in enumerate(traces):
        outside = boundary_nodes(trace, graph)
        boundary += outside
        wb.append(resolve_boundary_weight(len(trace.members), len(outside), w_boundary))
        counts[:, t] = len(trace.members), len(outside), len(trace.edges)
    n_members, n_boundary = counts[:2].sum(axis=1).tolist()
    # members and boundary nodes numbered in one pass; members outside the
    # host are numbered after it
    number, extra = _host_numbers(
        graph, list(chain(chain.from_iterable(trace.members for trace in traces), boundary)))
    m_node, b_node = number[:n_members], number[n_members:]
    n_all = len(graph.ids) + len(extra)
    trace_no = np.arange(len(traces))
    m_trace, b_trace = (np.repeat(trace_no, c) for c in counts[:2])
    # each edge's influencer and influenced member, numbered across traces
    e_src, e_member = np.repeat(np.cumsum(counts[0]) - counts[0], counts[2]) + np.concatenate(
        [np.zeros((2, 0), dtype=np.int64)] + [trace._edge_ranks for trace in traces], axis=1)

    # A key (owner, src) names an active in-neighbor src. The owner is the
    # member's number for a member row and n_members + trace for a boundary
    # row, whose active set is the trace's members.
    m_key = m_trace * n_all + m_node
    active_keys = np.sort(np.concatenate((e_member * n_all + m_node[e_src], m_key + n_members * n_all)))

    # rows trace by trace, members before boundary nodes (lexsort is stable)
    is_member = np.arange(n_members + n_boundary) < n_members
    row_trace = np.concatenate((m_trace, b_trace))
    order = np.lexsort((~is_member, row_trace))
    node = np.concatenate((m_node, b_node))[order]
    owner = np.concatenate((np.arange(n_members), n_members + b_trace))[order]
    is_member, row_trace = is_member[order], row_trace[order]
    has_parent = np.concatenate((np.bincount(e_member, minlength=n_members) > 0,
                                 np.zeros(n_boundary, dtype=bool)))[order]

    bounds = np.concatenate((graph.indptr, np.full(len(extra), graph.indptr[-1])))  # outsiders: no in-edges
    # each entry's position in the host CSR: a row's node's in-edges, in order
    pos, row_degree = _row_positions(bounds, node)
    indptr = np.concatenate(([0], np.cumsum(row_degree)))
    active = _find(active_keys, np.repeat(owner, row_degree) * n_all + graph.indices[pos]) >= 0
    edges, col = _renumber(pos, len(graph.indices))
    bias_nodes, bias_col = _renumber(node, n_all)
    names = np.concatenate((graph.ids, np.fromiter(extra, dtype=object, count=len(extra))))
    return _Design(
        x=sp.csr_matrix((np.where(active, 1.0, -1.0), col, indptr), shape=(len(node), len(edges))),
        n_in=np.maximum(row_degree, 1).astype(float),
        label=is_member.astype(float),
        weight=np.where(is_member, 1.0, np.array(wb, dtype=float)[row_trace]),
        bias_col=bias_col,
        trace=row_trace,
        has_parent=has_parent,
        influence_keys=list(zip(graph.ids[graph.indices[edges]].tolist(),
                                graph.ids[graph.owner[edges]].tolist())),
        bias_keys=names[bias_nodes].tolist(),
        trace_ids=[trace.trace_id for trace in traces],
    )


def trace_nll(trace: CascadeTrace, graph: InfluenceGraph, params: ThresholdModelParams,
              w_boundary="balanced") -> float:
    """Negative log-likelihood of one trace.

    Member v is scored against its influence parents as the active context;
    boundary nodes are scored against the full member set. Probabilities are
    clamped to [1e-12, 1 - 1e-12] before the log.
    """
    design = _compile([trace], graph, w_boundary)
    return design.nll(design.probabilities(*design.load(params), params.aggregation))


def nll_and_grad(traces, graph: InfluenceGraph, params: ThresholdModelParams,
                 w_boundary="balanced"):
    """Total NLL over traces plus analytic gradients for influence and bias."""
    design = _compile(traces, graph, w_boundary)
    loss, grad_i, grad_b = design.nll_and_grad(*design.load(params), params.aggregation)
    return (loss, dict(zip(design.influence_keys, grad_i.tolist())),
            dict(zip(design.bias_keys, grad_b.tolist())))


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

    The traces are compiled once. Each iteration takes a full-batch gradient
    step then clamps parameters into their box. If the loss rises for 10
    consecutive iterations the learning rate is halved. A non-finite loss
    aborts. The fitted params hold the keys of ``init`` plus every key the
    traces touch.
    """
    if not (math.isfinite(lr) and lr > 0):
        raise InvalidParameter("lr", f"learning rate must be finite and > 0, got {lr}")
    if steps < 0:
        raise InvalidParameter("steps", f"must be >= 0, got {steps}")
    work = augment_with_prefixes(traces) if augment else list(traces)
    design = _compile(work, graph, w_boundary)
    theta, bias = design.load(init)
    losses = []
    lr_history = []
    loss, g_theta, g_bias = design.nll_and_grad(theta, bias, init.aggregation)
    losses.append(loss)
    rising = 0
    for it in range(steps):
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite loss at iteration {it}")
        theta = _clip(theta - lr * g_theta, init.upper)
        bias = _clip(bias - lr * g_bias, init.upper)
        lr_history.append(lr)
        new_loss, g_theta, g_bias = design.nll_and_grad(theta, bias, init.aggregation)
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
    params = init.copy()
    if steps:
        params.project()  # the keys no trace touches are clamped by every step too
        params.influence.update(zip(design.influence_keys, theta.tolist()))
        params.bias.update(zip(design.bias_keys, bias.tolist()))
    return FitResult(params=params, losses=tuple(losses), lr_history=tuple(lr_history))


def _sort_order(columns, bounds) -> np.ndarray:
    """The permutation that sorts rows by ``columns``, most significant first.

    Column i holds non-negative ints below ``bounds[i]``. The columns are
    combined into one int64 key when it fits, else lexsorted; rows with
    equal keys may come in any order."""
    if math.prod(bounds) >= 2**63:
        return np.lexsort(columns[::-1])
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for col, bound in zip(columns, bounds):
        key *= bound
        key += col
    return np.argsort(key)


def _intern(ids):
    """(each id's number, the distinct ids), numbered in ``str`` order of the
    ids, ties in order of first appearance."""
    index = {}
    first = np.fromiter(map(index.setdefault, ids, count()), dtype=np.int64, count=len(ids))
    distinct = list(index)
    names = list(map(str, distinct))
    by_str = sorted(range(len(distinct)), key=names.__getitem__)
    rank = np.empty(len(distinct), dtype=np.int64)
    rank[by_str] = np.arange(len(distinct))
    # ``first`` holds each id's first position; number those positions 0, 1, ...
    _, appearance = _renumber(first, len(ids))
    return rank[appearance], [distinct[i] for i in by_str]


def _columns(rows, width) -> list:
    """The columns of a sequence of ``width``-tuples, as lists."""
    rows = rows if isinstance(rows, (list, tuple)) else list(rows)
    if rows and set(map(len, rows)) != {width}:
        raise ValueError(f"expected {width}-tuples")
    return [list(map(itemgetter(i), rows)) for i in range(width)]


def _firsts(values) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from their predecessor."""
    mask = np.ones(len(values), dtype=bool)
    mask[1:] = values[1:] != values[:-1]
    return mask


def _csr(rows, cols, n_rows):
    """(indptr, indices) of the distinct (row, col) pairs, each row's columns ascending."""
    key = np.sort(rows * n_rows + cols)
    key = key[_firsts(key)]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(key // n_rows, minlength=n_rows))))
    return indptr, key % n_rows


def _time_codes(times) -> np.ndarray:
    """int64 codes of ``int(t)`` for each time, in the same order and with the
    same ties, whose span (max - min) stays below 2**63: the times themselves
    where they allow it, else their ranks among the distinct times."""
    time = np.asarray(times)
    if time.dtype.kind == "i" and int(time.max()) - int(time.min()) < 2**63:
        return time.astype(np.int64, copy=False)
    ints = list(map(int, times))
    lo, hi = min(ints), max(ints)
    if -2**63 <= lo and hi < 2**63 and hi - lo < 2**63:
        return np.array(ints, dtype=np.int64)
    return np.unique(np.array(ints, dtype=object), return_inverse=True)[1].astype(np.int64)


def _event_traces(trace_ids, names, trace, node, time, indptr, indices, tie=None) -> list:
    """CascadeTraces from adoption events.

    Nodes are numbered in ``str`` order of ``names``. The events, one per
    (trace, node), come sorted by (trace, node), and every trace numbered
    0..len(trace_ids)-1 has at least two. A trace's members follow (time,
    ``tie[node]``), or (time, node) without ``tie``. An influence edge w -> u
    joins two members of a trace when w is among u's influencers
    ``indices[indptr[u]:indptr[u + 1]]`` and adopted strictly earlier; edges
    follow (time of u, str(u), str(w)).
    """
    n_trace, n_node, n_event = len(trace_ids), len(names), len(node)
    clock = time - time.min()
    span = int(clock.max()) + 1
    by_rule = _sort_order((trace, clock, node), (n_trace, span, n_node))
    member = by_rule if tie is None else \
        _sort_order((trace, clock, tie[node]), (n_trace, span, int(tie.max()) + 1))

    # every (trace, influencer) pair of an event, looked up among the events
    pos, degree = _row_positions(indptr, node)
    dst = np.repeat(np.arange(n_event), degree)
    nbr = indices[pos]
    keys = trace * n_node + node
    src = _find(keys, trace[dst] * n_node + nbr)
    src, dst = src[src >= 0], dst[src >= 0]
    earlier = time[src] < time[dst]
    src, dst = src[earlier], dst[earlier]
    rule_rank = np.empty(n_event, dtype=np.int64)
    rule_rank[by_rule] = np.arange(n_event)
    by_edge = np.argsort(rule_rank[dst] * n_node + node[src])
    src, dst = src[by_edge], dst[by_edge]

    names = np.fromiter(names, dtype=object, count=n_node)
    members = names[node[member]].tolist()
    edges = list(zip(names[node[src]].tolist(), names[node[dst]].tolist()))
    # events, members and edges all run trace by trace
    m_at = np.searchsorted(trace, np.arange(n_trace + 1)).tolist()
    e_at = np.searchsorted(trace[dst], np.arange(n_trace + 1)).tolist()
    return [CascadeTrace(trace_id, tuple(members[m_at[t]:m_at[t + 1]]),
                         tuple(edges[e_at[t]:e_at[t + 1]]))
            for t, trace_id in enumerate(trace_ids)]


def reconstruct_traces(trust_edges, ratings) -> list:
    """Cascade traces from trust relations and time-stamped adoption events.

    ``trust_edges`` holds (truster, trustee) pairs; ``ratings`` holds
    (user, product, time) triples. For each product with at least two
    adopters, in ``str`` order of the products, members are ordered by
    (time, str(user)) and an influence edge v -> u is added whenever u
    trusts v and v adopted strictly earlier. Edges are ordered by (time of
    u, str(u), str(v)). Duplicate (user, product) events keep the earliest
    time.
    """
    users, products, times = _columns(ratings, 3)
    if not users:
        return []
    user, user_ids = _intern(users)
    product, product_ids = _intern(products)
    time = _time_codes(times)
    n_user, n_product = len(user_ids), len(product_ids)

    # the earliest event per (product, user), sorted by (product, user)
    first = _sort_order((product, user, time - time.min()),
                        (n_product, n_user, int(time.max() - time.min()) + 1))
    pair = product[first] * n_user + user[first]
    first = first[_firsts(pair)]
    product, user, time = product[first], user[first], time[first]
    kept = np.bincount(product, minlength=n_product) >= 2
    if not kept.any():
        return []
    event = kept[product]
    trace = (np.cumsum(kept) - 1)[product[event]]

    number = dict(zip(user_ids, range(n_user)))
    truster, trustee = (np.fromiter(map(number.get, ids, repeat(-1)), dtype=np.int64, count=len(ids))
                        for ids in _columns(trust_edges, 2))
    known = (truster >= 0) & (trustee >= 0) & (truster != trustee)
    truster, trustee = truster[known], trustee[known]
    indptr, indices = _csr(truster, trustee, n_user)
    return _event_traces([str(product_ids[p]) for p in np.flatnonzero(kept)], user_ids,
                         trace, user[event], time[event], indptr, indices)


def traces_from_records(records, g, id_prefix="run") -> list:
    """Traces from simulated cascade records on an undirected host graph.

    Members follow activation time (ties by node id); an influence edge runs
    from each strictly earlier activated neighbor to the later one. Edges
    are ordered by (time of the later node, str of it, str of the earlier).
    """
    times = [np.asarray(rec.activation_time) for rec in records]
    adopters = [np.flatnonzero(t >= 0) for t in times]
    kept = [i for i, nodes in enumerate(adopters) if len(nodes) >= 2]
    if not kept:
        return []
    raw = np.concatenate([adopters[i] for i in kept])
    time = _time_codes(np.concatenate([times[i][adopters[i]] for i in kept]))
    trace = np.repeat(np.arange(len(kept)), [len(adopters[i]) for i in kept])
    distinct = np.unique(raw).tolist()
    names = np.array(sorted(distinct, key=str), dtype=np.int64)
    number = np.full(g.n, -1, dtype=np.int64)
    number[names] = np.arange(len(names))
    node = number[raw]
    by_node = _sort_order((trace, node), (len(kept), len(names)))
    trace, node, time = trace[by_node], node[by_node], time[by_node]

    # the host's adjacency among the adopters, in the new numbering
    pos = g.raw.row_positions(names)
    row = np.repeat(np.arange(len(names)), g.raw.indptr[names + 1] - g.raw.indptr[names])
    nbr = number[g.raw.indices[pos]]
    indptr, indices = _csr(row[nbr >= 0], nbr[nbr >= 0], len(names))
    return _event_traces([f"{id_prefix}{i}" for i in kept], names.tolist(), trace, node, time,
                         indptr, indices, tie=names)


def split_traces(traces, test_fraction: float = 0.2, rng_seed: int = 0):
    """Deterministic by-trace train/test split."""
    if not 0.0 <= test_fraction <= 1.0:
        raise InvalidParameter("test-fraction", f"must be in [0, 1], got {test_fraction}")
    order = sorted(range(len(traces)), key=lambda i: traces[i].trace_id)
    rng = np.random.default_rng(int(rng_seed))
    rng.shuffle(order)
    n_test = int(round(test_fraction * len(traces)))
    test_idx = set(order[:n_test])
    train = [traces[i] for i in range(len(traces)) if i not in test_idx]
    test = [traces[i] for i in range(len(traces)) if i in test_idx]
    return train, test


def _category_outcomes(traces, graph, params):
    """Per-category hit arrays for accuracy reports: members with an
    influence parent predicted active (seed-like members have nothing to
    predict from), boundary nodes predicted inactive (ties predict inactive)."""
    design = _compile(traces, graph)
    p = design.probabilities(*design.load(params), params.aggregation)
    return p[design.has_parent] > 0.5, p[design.label == 0.0] <= 0.5


def _category_report(member_hits, boundary_hits) -> dict:
    return {
        "active_nonseeds": float(np.mean(member_hits)) if len(member_hits) else None,
        "boundary": float(np.mean(boundary_hits)) if len(boundary_hits) else None,
        "n_active_nonseeds": len(member_hits),
        "n_boundary": len(boundary_hits),
    }


def _pooled_accuracy(member_hits, boundary_hits):
    total = len(member_hits) + len(boundary_hits)
    if total == 0:
        raise InvalidParameter("traces", "no evaluable nodes")
    accuracy = int(np.count_nonzero(member_hits) + np.count_nonzero(boundary_hits)) / total
    majority = max(len(member_hits), len(boundary_hits)) / total
    return accuracy, majority, {"active_nonseeds": len(member_hits), "boundary": len(boundary_hits)}


def evaluate(train_traces, test_traces, graph: InfluenceGraph,
             params: ThresholdModelParams) -> dict:
    """Activation-state accuracy for active non-seeds and boundary nodes.

    Empty categories are reported as None rather than zero.
    """
    return {name: _category_report(*_category_outcomes(traces, graph, params))
            for name, traces in (("train", train_traces), ("test", test_traces))}


def activation_state_accuracy(traces, graph: InfluenceGraph, params: ThresholdModelParams):
    """Pooled accuracy over active non-seeds plus boundary nodes, with the
    majority-class baseline of the same population."""
    return _pooled_accuracy(*_category_outcomes(traces, graph, params))


def evaluation_report(train_traces, test_traces, graph: InfluenceGraph,
                      params: ThresholdModelParams) -> dict:
    """``evaluate``'s report plus, for a non-empty test split, its
    ``activation_state_accuracy`` under ``test_pooled``; each split is
    compiled once."""
    hits = {name: _category_outcomes(traces, graph, params)
            for name, traces in (("train", train_traces), ("test", test_traces))}
    report = {name: _category_report(*split) for name, split in hits.items()}
    if test_traces:
        accuracy, majority, counts = _pooled_accuracy(*hits["test"])
        report["test_pooled"] = {"accuracy": accuracy, "majority_baseline": majority, **counts}
    return report


def save_model(params: ThresholdModelParams, path) -> None:
    doc = {
        "aggregation": params.aggregation,
        "upper": None if math.isinf(params.upper) else params.upper,
        "I": [[str(src), str(dst), float(w)] for (src, dst), w in sorted(
            params.influence.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
        )],
        "b": [[str(v), float(b)] for v, b in sorted(params.bias.items(), key=lambda kv: str(kv[0]))],
    }
    with open_new(path) as fh:
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
