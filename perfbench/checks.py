"""Output fingerprints and the comparisons behind ``failed_ops_frac``.

A fingerprint maps a key to one entry:

* ``{"kind": "exact", "value": v}`` for integer outputs (edges, activation
  times, spreads, table counts). Long integer arrays are kept as a SHA-256
  digest of their int64 bytes.
* ``{"kind": "abs", "tol": t, "value": [...]}`` for floating outputs that
  must agree within ``t`` in absolute terms (features, edge weights).
* ``{"kind": "rel", "tol": t, "value": [...]}`` for floating outputs that
  must agree within ``t`` relative to their size (learner losses).

The tolerances let a change that computes the same outputs another way pass:
a sparse eigensolver whose feature rows agree to 2e-11, or a compiled
learner whose losses differ in the last bits.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

FEATURE_TOL = 1e-9
LOSS_RTOL = 1e-9
SAMPLE_STRIDE = 97  # rows / edges kept from long float arrays


def digest(values) -> str:
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.int64))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def exact(value) -> dict:
    return {"kind": "exact", "value": value}


def close_abs(values, tol=FEATURE_TOL) -> dict:
    return {"kind": "abs", "tol": tol, "value": [float(x) for x in np.ravel(values)]}


def close_rel(values, tol=LOSS_RTOL) -> dict:
    return {"kind": "rel", "tol": tol, "value": [_num(x) for x in np.ravel(values)]}


def _num(x):
    return None if x is None else float(x)


def graph_fingerprint(g, prefix="graph") -> dict:
    """Edges exactly, plus a strided sample of feature rows and weights."""
    return {
        f"{prefix}.edges": exact(digest(g.raw.edges)),
        f"{prefix}.features": close_abs(g.features.rows[::SAMPLE_STRIDE]),
        f"{prefix}.edge_weights": close_abs(g.edge_weights[::SAMPLE_STRIDE]),
    }


def compare(reference: dict, observed: dict) -> list:
    """Mismatch messages between a reference fingerprint and an observed one."""
    problems = []
    for key, ref in reference.items():
        if key not in observed:
            problems.append(f"{key}: missing from the observed outputs")
            continue
        got = observed[key]["value"]
        want = ref["value"]
        if ref["kind"] == "exact":
            if got != want:
                problems.append(f"{key}: {got!r} != reference {want!r}")
            continue
        if len(got) != len(want):
            problems.append(f"{key}: length {len(got)} != reference {len(want)}")
            continue
        for i, (a, b) in enumerate(zip(got, want)):
            if a is None or b is None:
                if a is not b:
                    problems.append(f"{key}[{i}]: {a!r} != reference {b!r}")
                    break
                continue
            limit = ref["tol"] * (max(abs(a), abs(b), 1.0) if ref["kind"] == "rel" else 1.0)
            if not abs(a - b) <= limit:
                problems.append(f"{key}[{i}]: {a!r} differs from reference {b!r} by more than {limit:g}")
                break
    for key in observed:
        if key not in reference:
            problems.append(f"{key}: not in the reference")
    return problems


def feature_invariants(features, label="graph") -> list:
    """Unit-norm rows and an eigen-residual within 1e-8."""
    problems = []
    norms = np.linalg.norm(features.rows, axis=1)
    if not np.all(np.abs(norms - 1.0) <= FEATURE_TOL):
        problems.append(f"{label}: feature rows are not unit norm")
    if not features.max_residual <= 1e-8:
        problems.append(f"{label}: max_residual {features.max_residual:g} > 1e-8")
    return problems


def record_invariants(rec, label) -> list:
    """A cascade record's final spread equals its activated-node count."""
    times = np.asarray(rec.activation_time)
    activated = int(np.sum(times >= 0))
    problems = []
    if rec.final_spread != activated:
        problems.append(f"{label}: final_spread {rec.final_spread} != {activated} activated nodes")
    if int(np.sum(rec.new_per_step)) != activated:
        problems.append(f"{label}: new_per_step sums to {int(np.sum(rec.new_per_step))}, not {activated}")
    for s in rec.seed_set:
        if times[s] != 0:
            problems.append(f"{label}: seed {s} not active at time 0")
    return problems


def finite(values) -> bool:
    return all(math.isfinite(float(x)) for x in values)
