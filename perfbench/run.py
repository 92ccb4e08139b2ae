"""Benchmark of the contagion toolkit: four workloads, end-to-end metrics,
and a traced run with a per-module breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_sweep --seed 3 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
lines before it give every metric with its unit and sample count, the
environment, and any failed check. ``--scale tiny`` runs the same chains at
toy sizes (for the benchmark's own tests).

BLAS is pinned to one thread and every workload runs with jobs=1, so the
numbers measure the program and not the scheduler. End-to-end timings are
given at a fixed reference speed of the machine (see ``speed.py``), so that
a shared host's changing load does not move them.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PINNED_SEED = 20260810
SETUP_REPEATS = 5
REFERENCE = HERE / "reference.json"


def _import_package():
    """Import contagion from this checkout's src/, or explain why not."""
    if not (SRC / "contagion" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'contagion'}")
    sys.path.insert(0, str(SRC))
    import contagion

    if Path(contagion.__file__).resolve().parent != (SRC / "contagion").resolve():
        raise SystemExit(f"perfbench: imported contagion from {contagion.__file__}, not {SRC}")


def _environment(workload):
    import platform
    import subprocess

    import numpy as np
    import scipy

    def git(*args):
        try:
            res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    in_git = (ROOT / ".git").exists()
    commit = git("rev-parse", "HEAD") if in_git else None
    status = git("status", "--porcelain", "--", "src") if in_git else None
    return {
        "workload": workload,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "jobs": 1,
        "commit": commit,
        "src_dirty": None if status is None else bool(status),
        "src_sha256": _source_digest(),
    }


def _blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return os.environ.get("OPENBLAS_NUM_THREADS")
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out or os.environ.get("OPENBLAS_NUM_THREADS")


def _source_digest():
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "contagion").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems, label):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def run_iteration(wl, ctx, it, tally, clock=time.perf_counter):
    """One pass through the workload's steps; returns (timed seconds, the
    same at reference speed, outputs).

    Each step is one operation, timed between two speed probes. A step that
    raises counts as failed and ends the iteration; checks run between steps
    and are not timed.
    """
    out = {}
    raw = ref = 0.0
    for step in wl.steps:
        before = speed.probe(clock)
        t0 = clock()
        try:
            result = step.run(ctx, it, out)
        except Exception as err:  # a failed operation is reported, not fatal
            elapsed = clock() - t0
            tally.add([f"raised {type(err).__name__}: {err}"], f"iteration {it} {step.label}")
            return raw + elapsed, ref + speed.at_reference(elapsed, before, speed.probe(clock)), None
        elapsed = clock() - t0
        raw += elapsed
        ref += speed.at_reference(elapsed, before, speed.probe(clock))
        out[step.label] = result
        tally.add(step.check(ctx, it, out, result), f"iteration {it} {step.label}")
    return raw, ref, out


def check_reference(wl, ctx, out, seed, tally):
    """At the pinned seed and full scale, compare iteration 0 with the reference."""
    import checks

    if seed != PINNED_SEED or wl.scale != "full" or out is None:
        return
    with open(REFERENCE) as fh:
        reference = json.load(fh)[wl.name]
    tally.add(checks.compare(reference, wl.fingerprint(ctx, out)), "reference")


def timed_loop(wl, ctx, seconds, tally, seed, max_iterations=None):
    """Closed loop: iterations back to back until the next one would end
    past ``seconds`` (always at least one). Returns the raw seconds, the
    reference-speed seconds and the work units of each iteration."""
    raw, ref, work = [], [], []
    it = 0
    while True:
        elapsed, scaled, out = run_iteration(wl, ctx, it, tally)
        raw.append(elapsed)
        ref.append(scaled)
        work.append(0 if out is None else wl.work(ctx, out))
        if it == 0:
            check_reference(wl, ctx, out, seed, tally)
        it += 1
        if max_iterations is not None and it >= max_iterations:
            break
        if max_iterations is None and sum(raw) + sorted(raw)[len(raw) // 2] > seconds:
            break
    return raw, ref, work


def setup(wl, seed, workdir, tally):
    ctx = wl.setup(seed, workdir)
    tally.add(wl.setup_checks(ctx), "setup")
    return ctx


def end_to_end(wl, seed, seconds, workdir):
    from tracer import median

    tally = Tally()
    setup_raw, setup_ref = [], []
    for rep in range(SETUP_REPEATS):
        before = speed.probe()
        t0 = time.perf_counter()
        ctx = wl.setup(seed, workdir)
        elapsed = time.perf_counter() - t0
        setup_raw.append(elapsed)
        setup_ref.append(speed.at_reference(elapsed, before, speed.probe()))
        if rep < SETUP_REPEATS - 1:
            wl.teardown(ctx)
    tally.add(wl.setup_checks(ctx), "setup")
    try:
        raw, ref, work = timed_loop(wl, ctx, seconds, tally, seed)
    finally:
        wl.teardown(ctx)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (median(setup_ref), "s", len(setup_ref),
                    f"median of set-ups at reference speed; raw {median(setup_raw):.6g} s"),
        "wall_s": (median(ref), "s", len(ref),
                   f"median of iterations at reference speed; raw {median(raw):.6g} s"),
        "work_per_s": (median([w / t for w, t in zip(work, ref)]), "1/s", len(ref),
                       f"median of iterations' {wl.work_unit} per second at reference speed; "
                       f"raw {median([w / t for w, t in zip(work, raw)]):.6g}"),
        "peak_rss_mb": (rss, "MB", 1, "process peak"),
    }
    return metrics, tally


def traced(wl, seed, seconds, workdir):
    """Set-up traced, then the same iterations untraced and traced."""
    import layers
    from tracer import Tracer

    tally = Tally()
    tracer = Tracer()
    halvings = layers.HalvingCounter()
    learner_log = logging.getLogger("contagion.learner")
    learner_log.addHandler(halvings)
    try:
        tracer.install(layers.plan(), layers.MODULES)
        ctx = setup(wl, seed, workdir, tally)
        tracer.uninstall()
        try:
            _, plain, _ = timed_loop(wl, ctx, seconds / 2.0, tally, seed)
            tracer.install(layers.plan(), layers.MODULES)
            mark = len(tracer.spans)
            tracer.reset_counts()
            halvings.count = 0
            traced_raw, traced_ref, _ = timed_loop(wl, ctx, None, tally, seed,
                                                   max_iterations=len(plain))
        finally:
            tracer.uninstall()
            wl.teardown(ctx)
    finally:
        learner_log.removeHandler(halvings)
    # both phases at reference speed, so that a change in the host's load
    # between them is not counted as tracing overhead
    overhead = sum(traced_ref) / sum(plain) - 1.0
    metrics = layers.layer_metrics(tracer, mark, len(traced_raw), sum(traced_raw), overhead,
                                   halvings.count)
    _write_spans(wl.name, seed, tracer, mark)
    return metrics, tally


def _write_spans(name, seed, tracer, mark):
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    doc = {
        "timed_from": mark,
        "spans": [[s.name, s.start, s.end, s.parent] for s in tracer.spans],
        "counters": [[n, p, c, s] for (n, p), (c, s) in tracer.counters.items()],
    }
    with open(out_dir / f"spans-{name}-{seed}.json", "w") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    try:
        _import_package()
    except SystemExit as err:
        print(err, file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.scale)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=ROOT / ".perfbench"))
    try:
        if args.trace:
            metrics, tally = traced(wl, args.seed, args.seconds, workdir)
        else:
            metrics, tally = end_to_end(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(_environment(wl.name), sort_keys=True))
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name, (value, unit, samples, note) in metrics.items():
        if args.trace:
            note = "; ".join(filter(None, (note, f"should move {layers.PER_LAYER[name][2]}")))
        print(f"{wl.name} {name} = {value:.6g} {unit} (n={samples}; {note})")
    print(f"{wl.name} failed_ops_frac = {tally.failed / tally.attempted:.6g} "
          f"(n={tally.attempted} operations; reported as failed / attempted)")
    reported = {name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
