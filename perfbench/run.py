"""Host throughput of MOCA sweeps: the repository's benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload front-cold --seed 1 --seconds 30 --trace 0

One run repeats passes of the workload for ``--seconds`` seconds.  Each
pass is a fresh process (``worker.py``) that resolves the workload's
``RunSpec`` list through ``repro.experiments.engine.execute`` with
``REPRO_WORKERS=1`` and fresh stores in a temporary directory inside
the checkout.  ``replay-warm`` passes first prime the miss-stream store
in another process.

Every unit's row digest is checked against ``golden.json`` (seeds without
committed digests are reported as unchecked) and against the run's other
passes.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` passes alternate
untraced and traced, and the metrics are the per-layer numbers of the
traced pass with the median wall time plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
#: Scratch space for stores and pass outputs; removed after each run.
WORK = ROOT / ".perfbench-work"
#: Wall-clock budget of one run, set-up and passes included; the
#: harness must exit well inside 180 s.
RUN_LIMIT_S = 170.0
#: Seconds ``worker.calibrate()`` takes on the reference host, the
#: 2-vCPU Xeon VM of README.md's baseline, in its fast phase.  Host
#: seconds are reported at this speed.
REFERENCE_CALIB_S = 0.0475


class BenchError(RuntimeError):
    """The run could not measure the workload; no result is printed."""


def child_env(work: Path) -> dict[str, str]:
    """The measured processes' environment: pinned, with no REPRO_ knobs.

    One worker so the numbers measure the program, not the scheduler;
    fast path, telemetry, profiling and batching stay at their defaults;
    temporary and cache files stay inside the checkout.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PYTHON"))}
    env.update({
        "REPRO_WORKERS": "1",
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "TMPDIR": str(work),
        "XDG_CACHE_HOME": str(work / "xdg"),
    })
    return env


def _child(argv: list[str], env: dict, deadline: float) -> None:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run exceeded its time limit")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                               *argv], env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a pass exceeded the run's time limit") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise BenchError(f"worker exited with code {proc.returncode}")


def one_pass(workload: workloads.Workload, seed: int, traced: bool,
             work: Path, env: dict, deadline: float) -> dict:
    """Run one pass in fresh processes; returns the worker's document."""
    shutil.rmtree(work, ignore_errors=True)
    (work / "xdg").mkdir(parents=True)
    cache = work / "cache"
    common = ["--workload", workload.name, "--seed", str(seed),
              "--cache-dir", str(cache)]
    prime_s = 0.0
    if workload.primed:
        t0 = time.monotonic()
        _child([*common, "--prime"], env, deadline)
        prime_s = time.monotonic() - t0
    out = work / "pass.json"
    _child([*common, "--trace", str(int(traced)), "--out", str(out),
            "--spawned-at", repr(time.monotonic())], env, deadline)
    doc = json.loads(out.read_text())
    doc["setup_s"] += prime_s
    doc["traced"] = traced
    return doc


def measure(workload: workloads.Workload, seed: int, seconds: float,
            trace: bool) -> list[dict]:
    """Repeat passes for ``seconds``; alternate traced ones if ``trace``."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    work = WORK / str(os.getpid())
    env = child_env(work)
    passes: list[dict] = []
    try:
        while (not passes or (trace and len(passes) < 2)
               or time.monotonic() - start < seconds):
            traced = trace and len(passes) % 2 == 1
            passes.append(one_pass(workload, seed, traced, work, env,
                                   deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone
    return passes


def check_rows(passes: list[dict], golden: dict | None
               ) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over every unit of every pass.

    A unit fails if it raised, if its digest differs from the committed
    one, or -- for seeds without committed digests -- if it differs from
    the same unit's digest in the run's first pass.
    """
    reference = golden if golden is not None else passes[0]["digests"]
    attempted = failed = 0
    notes = []
    for i, p in enumerate(passes):
        for label, digest in p["digests"].items():
            attempted += 1
            if digest is None:
                failed += 1
                notes.append(f"pass {i}: {label} raised")
            elif digest != reference.get(label):
                failed += 1
                notes.append(f"pass {i}: {label} digest {digest[:12]} != "
                             f"{str(reference.get(label))[:12]}")
    ratios = {p["moca_edp_ratio"] for p in passes}
    if len(ratios) != 1:
        notes.append(f"moca_edp_ratio differs between passes: {ratios}")
    return attempted, failed, notes


def at_reference_speed(p: dict) -> dict:
    """Pass ``p`` with its host seconds rescaled to the reference speed.

    The shared host this benchmark was built on swings about 2x in speed
    for minutes at a time.  The calibration the worker times on the same
    CPU just before and after the pass tracks that swing and never runs
    program code, so the rescaled figures move with the program and not
    with the neighbours.
    """
    speed = REFERENCE_CALIB_S / p["calib_s"]

    def scale(metrics: dict) -> dict:
        # Layer metrics name their unit: ``*_per_s`` rates, ``*_s`` times.
        return {k: (v / speed if k.endswith("_per_s")
                    else v * speed if k.endswith("_s") else v)
                for k, v in metrics.items()}

    out = dict(p, exec_s=p["exec_s"] * speed, setup_s=p["setup_s"] * speed,
               unit_s={k: v * speed for k, v in p["unit_s"].items()})
    for key in ("layers", "split"):
        if key in p:
            out[key] = scale(p[key])
    return out


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """The run's end-to-end metrics: medians over passes.

    ``unit_s_p50`` takes each unit's median over passes first, so a pass
    slowed by other load on the host moves each unit's figure at most
    once, then the median over units.
    """
    med = statistics.median
    return {
        "accesses_per_s": med(p["accesses"] / p["exec_s"] for p in passes),
        "unit_s_p50": med(med(p["unit_s"][label] for p in passes)
                          for label in passes[0]["unit_s"]),
        "setup_s": med(p["setup_s"] for p in passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        "moca_edp_ratio": passes[0]["moca_edp_ratio"],
    }


def per_layer(passes: list[dict]) -> tuple[dict[str, float], dict]:
    """Layer metrics of the median traced pass, plus tracing overhead."""
    traced = sorted((p for p in passes if p["traced"]),
                    key=lambda p: p["exec_s"])
    plain = [p for p in passes if not p["traced"]]
    chosen = traced[(len(traced) - 1) // 2]
    metrics = dict(chosen["layers"])
    metrics["wall_s"] = chosen["exec_s"]

    def rate(group):
        return statistics.median(p["accesses"] / p["exec_s"] for p in group)

    metrics["tracing.overhead_ratio"] = rate(plain) / rate(traced)
    return metrics, chosen["split"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    compileall.compile_dir(ROOT / "src", quiet=2)
    try:
        passes = measure(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    golden = json.loads(GOLDEN.read_text()).get(workload.name, {}) \
        .get(str(args.seed))
    attempted, failed, notes = check_rows(passes, golden)
    units = unit_table()
    raw = end_to_end(passes)
    speed = statistics.median(REFERENCE_CALIB_S / p["calib_s"]
                              for p in passes)
    passes = [at_reference_speed(p) for p in passes]
    e2e = end_to_end(passes)
    status = ("checked against golden.json" if golden is not None else
              "UNCHECKED: no committed digests for this seed")
    print(f"workload {workload.name}  seed {args.seed}  input "
          f"{workloads.input_for_seed(args.seed)}  passes {len(passes)}  "
          f"rows {status}")
    for note in notes:
        print(f"  FAILED {note}")
    print(f"  host speed {speed:.3f} of reference; unscaled: "
          + ", ".join(f"{k} {raw[k]:.6g}"
                      for k in ("accesses_per_s", "unit_s_p50", "setup_s")))
    split = {}
    metrics = e2e
    if args.trace:
        metrics, split = per_layer(passes)
    for name, value in {**e2e, **metrics, **split}.items():
        print(f"  {name:<28} {value:>14.6g} {units.get(name, '')}")
    if golden is None:
        print("  digests " + json.dumps(passes[0]["digests"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def unit_table() -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
