"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/tests -q -p no:hypothesispytest
"""

from __future__ import annotations

import pytest

import layers
import run
import workloads


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock)

    def leaf():
        clock.advance(2.0)

    leaf = tracer.wrap("leaf", leaf)

    def mid():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)
        leaf()

    mid = tracer.wrap("mid", mid)

    def top():
        clock.advance(3.0)
        mid()

    top = tracer.wrap("top", top)
    top()
    assert tracer.self_s == {"top": 3.0, "mid": 1.5, "leaf": 4.0}
    assert tracer.calls == {"top": 1, "mid": 1, "leaf": 2}


def test_self_time_survives_exceptions():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("unit failed")

    boom = tracer.wrap("boom", boom)

    def outer():
        clock.advance(0.25)
        with pytest.raises(ValueError):
            boom()

    tracer.wrap("outer", outer)()
    assert tracer.self_s == {"outer": 0.25, "boom": 1.0}


def test_layers_plus_unaccounted_sum_to_wall():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock)
    inner = tracer.wrap("inner", lambda: clock.advance(2.0))

    def outer():
        clock.advance(1.0)
        inner()

    outer = tracer.wrap("outer", outer)
    start = clock()
    clock.advance(0.5)  # harness time outside any layer
    outer()
    outer()
    wall = clock() - start
    report = tracer.report(wall)
    self_times = [v for k, v in report.items() if k.endswith(".self_s")]
    assert report["unaccounted_s"] == pytest.approx(0.5)
    assert sum(self_times) + report["unaccounted_s"] == pytest.approx(wall)


def test_seed_to_input_mapping():
    assert workloads.input_for_seed(1) == "ref"
    assert workloads.input_for_seed(0) == "ref0"
    assert workloads.input_for_seed(7) == "ref7"
    with pytest.raises(ValueError):
        workloads.input_for_seed(-1)


def test_specs_see_only_the_generated_input():
    from repro.workloads.inputs import is_valid_input

    for workload in workloads.WORKLOADS.values():
        specs = workloads.specs(workload, 3)
        assert len(specs) == len(workload.groups) * len(workload.columns)
        assert {s.input_name for s in specs} == {"ref3"}
        assert all(is_valid_input(s.input_name) for s in specs)


def _passes(*digest_maps):
    return [{"digests": d, "moca_edp_ratio": 0.5} for d in digest_maps]


def test_digest_check_marks_perturbed_row_failed():
    golden = {"a/X/p": "1" * 64, "b/X/p": "2" * 64}
    good = dict(golden)
    perturbed = {**golden, "b/X/p": "3" * 64}
    attempted, failed, notes = run.check_rows(_passes(good, perturbed),
                                              golden)
    assert (attempted, failed) == (4, 1)
    assert "b/X/p" in notes[0]


def test_digest_check_counts_raised_units():
    golden = {"a/X/p": "1" * 64}
    attempted, failed, _ = run.check_rows(_passes({"a/X/p": None}), golden)
    assert (attempted, failed) == (1, 1)


def test_unchecked_seed_compares_passes_with_each_other():
    first = {"a/X/p": "1" * 64}
    attempted, failed, _ = run.check_rows(
        _passes(first, first, {"a/X/p": "9" * 64}), None)
    assert (attempted, failed) == (3, 1)


def test_reference_speed_rescales_times_and_rates():
    half_speed = {
        "calib_s": 2 * run.REFERENCE_CALIB_S,
        "exec_s": 4.0, "setup_s": 1.0, "unit_s": {"a/X/p": 2.0},
        "layers": {"trace.self_s": 1.0, "trace.accesses_per_s": 100.0,
                   "trace.calls": 3, "store.stream.hit_ratio": 0.5},
    }
    p = run.at_reference_speed(half_speed)
    assert (p["exec_s"], p["setup_s"], p["unit_s"]) == (2.0, 0.5,
                                                        {"a/X/p": 1.0})
    assert p["layers"] == {"trace.self_s": 0.5,
                           "trace.accesses_per_s": 200.0,
                           "trace.calls": 3, "store.stream.hit_ratio": 0.5}
    assert half_speed["exec_s"] == 4.0  # the measured pass is untouched


def test_committed_golden_covers_default_seed():
    import json

    golden = json.loads(run.GOLDEN.read_text())
    for name, workload in workloads.WORKLOADS.items():
        rows = golden[name][str(workloads.DEFAULT_SEED)]
        labels = {s.describe() for s in workloads.specs(workload, 1)}
        assert set(rows) == labels


def test_traced_pass_on_the_real_program(tmp_path):
    """Wrappers install and uninstall cleanly, self times sum to the
    wall time, and a store-served stream whose trace is rebuilt anyway
    counts as a redundant build."""
    import time

    from repro.experiments import engine
    from repro.moca.profiler import profile_app
    from repro.sim import single, stream_store
    from repro.sim.spec import RunSpec
    from repro.trace.builder import TraceBuilder
    from repro.workloads.inputs import build_app_trace

    n = 4_000
    stream_store.configure(tmp_path / "cache" / "streams")
    single.filtered_stream("gcc", "ref5", n)  # prime the store
    memos = (single.filtered_stream, build_app_trace, profile_app)
    for memo in memos:
        memo.cache_clear()
    original_build = TraceBuilder.build
    tracer = layers.LayerTracer()
    uninstall = layers.install(tracer)
    try:
        engine.configure(tmp_path / "cache")
        start = time.perf_counter()
        engine.execute([RunSpec("gcc", "Heter-config1", "moca", n,
                                input_name="ref5")])
        wall = time.perf_counter() - start
    finally:
        uninstall()
        engine.reset()
        for memo in memos:
            memo.cache_clear()
    assert TraceBuilder.build is original_build
    m = layers.layer_metrics(tracer, wall)
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert m["unaccounted_s"] >= 0.0
    assert self_total + m["unaccounted_s"] == pytest.approx(wall)
    assert m["unaccounted_s"] < 0.05 * wall
    for layer in layers.LAYERS:
        assert m[f"{layer}.calls"] >= 1, layer
    # ref5 rebuilt for its layout after the store served it; train once.
    assert m["trace.calls"] == 2
    assert m["trace.redundant_builds"] == 1
    assert m["store.stream.hit_ratio"] == 1.0
