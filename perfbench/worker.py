"""One measured pass of a workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand.  A fresh process per
pass matters: the program memoizes traces, miss streams, profiles,
results and decoded store entries in-process, so a second pass in the
same process would be warm.

``--prime`` fills the miss-stream store for the workload instead, the
way another process on the machine would have left it.

The pass writes one JSON document to ``--out``: set-up and execute
times, per-unit host seconds and row digests, simulated accesses,
``moca_edp_ratio``, peak RSS, the host's calibration time and, with
``--trace 1``, the per-layer metrics of :mod:`layers`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import layers
import workloads


def row_digest(metrics) -> str:
    """SHA-256 of ``RunMetrics.to_dict()`` without its ``meta`` block."""
    doc = metrics.to_dict()
    doc.pop("meta")
    blob = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def edp_ratio(workload: workloads.Workload, specs, results) -> float:
    """Geometric mean over groups of MOCA / Homogen-DDR3 memory EDP."""
    edp = {(s.workload, s.config, s.policy_label): m.memory_edp
           for s, m in zip(specs, results) if m is not None}
    logs = []
    for g in workload.groups:
        moca = edp.get((g, *workloads.MOCA))
        base = edp.get((g, *workloads.BASELINE))
        if moca and base:
            logs.append(math.log(moca / base))
    return math.exp(sum(logs) / len(logs)) if logs else float("nan")


def calibrate() -> float:
    """Seconds a fixed piece of work takes on this host right now.

    The work never touches the program: interpreter-bound dict updates
    in a loop, then NumPy sorts, uniques and gathers, the two kinds of
    work the simulator's layers do.  run.py rescales the pass's times
    by it to factor out how fast the host happens to be.
    """
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(40_000):
        k = (i * 2654435761) & 4095
        counts[k] = counts.get(k, 0) + 1
    a = np.random.default_rng(7).integers(0, 1 << 40, 100_000)
    for _ in range(2):
        np.sort(a)
        np.cumsum(a & 1023)
        np.unique(a & 0xFFFFF)
        a[np.argsort(a & 0xFFFF, kind="stable")]
    return time.perf_counter() - t0


def prime(workload: workloads.Workload, seed: int, store_dir: Path) -> None:
    from repro.sim import stream_store
    from repro.sim.single import filtered_stream

    stream_store.configure(store_dir)
    for app in workload.groups:
        filtered_stream(app, workloads.input_for_seed(seed),
                        workload.n_accesses)


def measure(workload: workloads.Workload, seed: int, cache_dir: Path,
            spawned_at: float, traced: bool) -> dict:
    from repro.experiments import engine
    from repro.experiments.resilience import SweepFailure

    # Calibrate on this process's CPU just before and after the pass;
    # the time spent before is taken out of set-up.
    t_cal = time.monotonic()
    calib = [calibrate(), calibrate()]
    calib_before_s = time.monotonic() - t_cal
    tracer = None
    if traced:
        tracer = layers.LayerTracer()
        layers.install(tracer)
    # Result cache in cache_dir, miss-stream store in cache_dir/streams.
    engine.configure(cache_dir)
    specs = workloads.specs(workload, seed)
    # First dispatch, then one (label, stamp) per finished unit.
    stamps: list[tuple[str, float]] = []

    def observe(event: dict) -> None:
        if event["kind"] in ("phase_begin", "unit_done"):
            stamps.append((event.get("label"), time.monotonic()))

    engine.add_observer(observe)
    t0 = time.perf_counter()
    try:
        results = engine.execute(specs)
    except SweepFailure:
        # Survivors are in the result cache; failed units read as None.
        cache = engine.active_cache()
        results = [cache.get(s) for s in specs]
    exec_s = time.perf_counter() - t0
    calib += [calibrate(), calibrate()]

    out = {
        "setup_s": stamps[0][1] - spawned_at - calib_before_s,
        "exec_s": exec_s,
        "accesses": sum(s.n_accesses * _cores(s) for s in specs),
        "unit_s": {label: t - prev for (_, prev), (label, t)
                   in zip(stamps, stamps[1:])},
        "digests": {s.describe(): (row_digest(m) if m else None)
                    for s, m in zip(specs, results)},
        "moca_edp_ratio": edp_ratio(workload, specs, results),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calib_s": statistics.median(calib),
    }
    if tracer is not None:
        out["layers"] = layers.layer_metrics(tracer, exec_s)
        out["split"] = layers.store_split(tracer)
    return out


def _cores(spec) -> int:
    if not spec.is_multi:
        return 1
    from repro.workloads.mixes import mix

    return len(mix(spec.workload).apps)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cache-dir", type=Path, required=True)
    ap.add_argument("--prime", action="store_true")
    ap.add_argument("--spawned-at", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    if args.prime:
        prime(workload, args.seed, args.cache_dir / "streams")
        return
    doc = measure(workload, args.seed, args.cache_dir, args.spawned_at,
                  bool(args.trace))
    args.out.write_text(json.dumps(doc))


if __name__ == "__main__":
    main()
