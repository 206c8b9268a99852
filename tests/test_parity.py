"""Fast-path vs reference replay parity: bit-identical, at volume.

The kernelized SoA replay (``repro.memctrl.batch`` consumed by
``InOrderWindowCore`` in fast mode) is an *optimization*, not a model
change: for any trace, memory system, and core parameterization it must
produce byte-for-byte the same :class:`CoreResult` and leave the memory
system in byte-for-byte the same state (module counters, controller
counters, latency histograms, per-bank timing state) as the retained
per-record reference interpreter.

This file pins that contract three ways:

* a seeded bulk sweep over >= 10k random tiny traces (mixed request
  kinds, dependence chains, fractional IPC, multi-group heterogeneous
  systems, derated timings that exercise the tRAS precharge guard,
  FCFS and FR-FCFS scheduling, single-core and multicore heap
  interleave);
* hypothesis property tests (fewer examples, but shrinkable — a failure
  here minimizes itself);
* whole-pipeline ``run(spec)`` comparisons plus pinned cache keys and
  result digests, so the fast path can never silently change either the
  numbers or the cache identity of a default-valued spec.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import core as core_mod
from repro.cpu.core import CoreParams, InOrderWindowCore, replay_interleaved
from repro.cpu.hierarchy import (
    KIND_LOAD,
    KIND_PREFETCH,
    KIND_STORE,
    KIND_WRITEBACK,
    MissStream,
)
from repro.memctrl.scheduler import fcfs_order
from repro.memctrl.system import ChannelGroup, MemorySystem
from repro.memdev.presets import DDR3, HBM, LPDDR2, RLDRAM3
from repro.obs.registry import OBS
from repro.sim.spec import RunSpec, run
from repro.util.units import MIB

# ---- system recipes ---------------------------------------------------------
#
# Each entry: (builder, [per-group capacity in bytes]).  Fresh systems per
# replay — bank/bus state is mutable and must start identical on both paths.

_RECIPES = [
    # Single channel, FR-FCFS: the simplest configuration.
    (lambda: MemorySystem({"main": ChannelGroup(DDR3, 1, 8 * MIB)}),
     [8 * MIB]),
    # Two channels: power-of-two XOR channel hashing in the address map.
    (lambda: MemorySystem({"main": ChannelGroup(DDR3, 2, 4 * MIB)}),
     [8 * MIB]),
    # Three channels + FCFS: modulo routing and the other scheduler mode.
    (lambda: MemorySystem({"main": ChannelGroup(HBM, 3, 4 * MIB,
                                                scheduler=fcfs_order)}),
     [12 * MIB]),
    # Heterogeneous three-group system with derated (fault-injected)
    # timings: odd cycle counts exercise the tRAS-before-precharge guard.
    (lambda: MemorySystem({
        "fast": ChannelGroup(RLDRAM3.scaled(1.1), 1, 4 * MIB),
        "mid": ChannelGroup(HBM, 2, 4 * MIB),
        "pow": ChannelGroup(LPDDR2.scaled(1.25), 1, 8 * MIB),
    }), [4 * MIB, 8 * MIB, 8 * MIB]),
]

_PARAMS = [
    CoreParams(),
    CoreParams(ipc=0.1),                      # fractional IPC, den=10
    CoreParams(ipc=1.5, rob_size=16, mshr=4),
    CoreParams(ipc=0.3, lq_size=2),           # tiny episodes
    CoreParams(ipc=2.0, backlog=16),          # tight non-demand backlog
    CoreParams(mshr=1),                       # no overlap at all
]

_KINDS = np.array([KIND_LOAD, KIND_STORE, KIND_WRITEBACK, KIND_PREFETCH],
                  dtype=np.int8)


def _random_trace(rng, caps):
    """One random tiny (stream, groups, gaddrs) against ``caps`` groups."""
    n = int(rng.integers(1, 24))
    gaps = rng.integers(0, 40, size=n)
    inst = (np.cumsum(gaps) + 1).astype(np.int64)
    stream = MissStream(
        inst=inst,
        vline=(rng.integers(0, 1 << 24, size=n) * 64).astype(np.int64),
        obj_id=rng.integers(0, 5, size=n).astype(np.int32),
        dep=rng.random(n) < 0.25,
        kind=_KINDS[rng.integers(0, 4, size=n)],
        total_instructions=int(inst[-1]) + int(rng.integers(0, 50)),
    )
    groups = rng.integers(0, len(caps), size=n).astype(np.int32)
    lines = rng.random(n)  # uniform within each group's capacity
    gaddrs = np.array([int(lines[i] * (caps[groups[i]] // 64)) * 64
                       for i in range(n)], dtype=np.int64)
    return stream, groups, gaddrs


# ---- state snapshots --------------------------------------------------------


def _memsys_doc(memsys):
    """Every observable counter and timing in the system, as one dict."""
    doc = {}
    for gname, g in zip(memsys.group_names, memsys.groups):
        for ci, (c, m) in enumerate(zip(g.controllers, g.modules)):
            doc[f"{gname}/ch{ci}"] = {
                "n_served": c.n_served,
                "queue_cycles": c.total_queue_cycles,
                "service_cycles": c.total_service_cycles,
                "hist": (tuple(c.latency_hist.counts), c.latency_hist.total,
                         c.latency_hist.sum_cycles,
                         c.latency_hist.max_cycles),
                "n_accesses": m.n_accesses,
                "n_row_hits": m.n_row_hits,
                "n_reads": m.n_reads,
                "n_writes": m.n_writes,
                "bus_busy_cycles": m.bus_busy_cycles,
                "bank_busy_cycles": m.bank_busy_cycles,
                "bytes_transferred": m.bytes_transferred,
                "last_done_cycle": m.last_done_cycle,
                "banks": [(b.open_row, b.ready_at, b.last_activate)
                          for sub in m.banks for b in sub],
            }
    return doc


def _replay(stream, groups, gaddrs, params, recipe, fast):
    memsys = recipe()
    core = InOrderWindowCore(stream, groups, gaddrs, params,
                             fast_path=fast)
    res = core.run_to_completion(memsys)
    return res, memsys


def _assert_parity(stream, groups, gaddrs, params, recipe, label=""):
    rf, mf = _replay(stream, groups, gaddrs, params, recipe, fast=True)
    rr, mr = _replay(stream, groups, gaddrs, params, recipe, fast=False)
    assert rf.to_dict() == rr.to_dict(), f"CoreResult diverged {label}"
    assert _memsys_doc(mf) == _memsys_doc(mr), f"memsys diverged {label}"


def _four_core_reps():
    """The seeded 4-core cases: (rep, recipe, params, traces)."""
    rng = np.random.default_rng(0xBEEF)
    for rep in range(150):
        recipe, caps = _RECIPES[rep % len(_RECIPES)]
        params = _PARAMS[rep % len(_PARAMS)]
        yield rep, recipe, params, [_random_trace(rng, caps)
                                    for _ in range(4)]


def _interleave(traces, params, recipe, fast):
    """Replay ``traces`` as interleaved cores on one fresh system."""
    memsys = recipe()
    cores = [InOrderWindowCore(s, g, a, params, core_id=i, fast_path=fast)
             for i, (s, g, a) in enumerate(traces)]
    order = replay_interleaved(cores, memsys).tolist()
    results = [c.run_to_completion(memsys) for c in cores]
    return [r.to_dict() for r in results], order, _memsys_doc(memsys)


# ---- the bulk sweep ---------------------------------------------------------


class TestBulkParity:
    def test_ten_thousand_random_traces_single_core(self):
        rng = np.random.default_rng(0xC0FFEE)
        for i in range(10_000):
            recipe, caps = _RECIPES[i % len(_RECIPES)]
            params = _PARAMS[i % len(_PARAMS)]
            stream, groups, gaddrs = _random_trace(rng, caps)
            _assert_parity(stream, groups, gaddrs, params, recipe,
                           label=f"(trace {i})")

    def test_multicore_heap_interleave(self):
        """4 cores sharing one system, advanced in global issue order —
        the exact interleave ``repro.sim.multi`` runs.  Interleaving makes
        the cores' episodes contend for the same banks, so parity here
        pins that the issue order and all shared live state (bank timing,
        bus direction, refresh schedule) agree between paths."""
        for rep, recipe, params, traces in _four_core_reps():
            outcome = [_interleave(traces, params, recipe, fast)
                       for fast in (True, False)]
            assert outcome[0] == outcome[1], f"multicore rep {rep}"

    def test_empty_stream(self):
        stream = MissStream(
            inst=np.array([], dtype=np.int64),
            vline=np.array([], dtype=np.int64),
            obj_id=np.array([], dtype=np.int32),
            dep=np.array([], dtype=bool),
            kind=np.array([], dtype=np.int8),
            total_instructions=777,
        )
        empty = np.array([], dtype=np.int64)
        for params in _PARAMS:
            _assert_parity(stream, empty.astype(np.int32), empty, params,
                           _RECIPES[0][0], label="(empty)")


# ---- the interleave order ---------------------------------------------------


def _loads(inst, total=None):
    """A stream of independent demand loads at instruction counts ``inst``."""
    n = len(inst)
    return MissStream(
        inst=np.asarray(inst, dtype=np.int64),
        vline=np.arange(n, dtype=np.int64) * 64 * 997,
        obj_id=np.zeros(n, dtype=np.int32),
        dep=np.zeros(n, dtype=bool),
        kind=np.full(n, KIND_LOAD, dtype=np.int8),
        total_instructions=total or (int(inst[-1]) + 100 if n else 100),
    )


def _on_one_group(stream):
    return (stream, np.zeros(len(stream), dtype=np.int32),
            stream.vline % (8 * MIB))


class TestInterleaveOrder:
    """The kernel's ``replay_interleave`` steps cores in exactly the
    reference heap's ``(next issue, core index)`` order."""

    @pytest.fixture(autouse=True)
    def _kernel_only(self, monkeypatch):
        """Fast runs must not fall back to the reference heap loop."""
        ref_loop = core_mod._interleave_ref

        def guarded(cores, live, memsys):
            assert not any(cores[i].fast_path for i in live)
            return ref_loop(cores, live, memsys)

        monkeypatch.setattr(core_mod, "_interleave_ref", guarded)

    def _both(self, traces, params=CoreParams(), recipe=_RECIPES[0][0]):
        outcome = []
        for fast in (True, False):
            OBS.reset().enable()
            try:
                run = _interleave(traces, params, recipe, fast)
                snap = OBS.snapshot()
            finally:
                OBS.reset().disable()
            # Model observations only (the kernel also counts its decode
            # cache), gauges included: each channel's occupancy gauge is
            # the size of the globally last batch on it.
            keep = ("mem.", "memsys.", "core")
            outcome.append((run, {
                kind: {k: v for k, v in snap[kind].items()
                       if k.startswith(keep)}
                for kind in ("counters", "gauges")}))
        assert outcome[0] == outcome[1]
        results, order, _ = outcome[0][0]
        assert len(order) == sum(r["n_episodes"] for r in results)
        for i, r in enumerate(results):
            assert order.count(i) == r["n_episodes"]
        return order

    def test_random_four_core_order(self):
        for rep, recipe, params, traces in _four_core_reps():
            self._both(traces, params, recipe)

    def test_empty_stream_never_steps(self):
        traces = [_on_one_group(_loads([10, 500, 900])),
                  _on_one_group(_loads([], total=777)),
                  _on_one_group(_loads([20, 40]))]
        order = self._both(traces)
        assert 1 not in order

    def test_single_core(self):
        order = self._both([_on_one_group(_loads([10, 500, 900, 1300]))])
        assert order == [0, 0, 0, 0]

    def test_tied_issues_go_to_the_lowest_index(self):
        # Identical load-only cores all issue their first episode at
        # cycle 10; each load then holds its core past that cycle.
        traces = [_on_one_group(_loads([10, 400, 800])) for _ in range(4)]
        order = self._both(traces)
        assert order[:4] == [0, 1, 2, 3]

    def test_core_finishing_on_its_first_episode(self):
        traces = [_on_one_group(_loads([50, 300, 700])),
                  _on_one_group(_loads([5])),
                  _on_one_group(_loads([60, 90]))]
        order = self._both(traces)
        assert order[0] == 1 and order.count(1) == 1

    def test_mixed_engines_rejected(self):
        # Kernel cores keep device state packed apart from the Python
        # objects a reference core would drive, so they cannot share.
        memsys = _RECIPES[0][0]()
        cores = [InOrderWindowCore(*_on_one_group(_loads([10, 500])),
                                   fast_path=fast) for fast in (True, False)]
        with pytest.raises(ValueError, match="one replay engine"):
            replay_interleaved(cores, memsys)


# ---- hypothesis: same contract, shrinkable ---------------------------------

_records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),    # inst gap
        st.sampled_from([KIND_LOAD, KIND_STORE, KIND_WRITEBACK,
                         KIND_PREFETCH]),
        st.booleans(),                             # dep
        st.integers(min_value=0, max_value=3),     # obj id
        st.integers(min_value=0, max_value=(4 * MIB) // 64 - 1),  # line
    ),
    min_size=1, max_size=16,
)


class TestHypothesisParity:
    @given(records=_records,
           params_i=st.integers(min_value=0, max_value=len(_PARAMS) - 1),
           recipe_i=st.integers(min_value=0, max_value=len(_RECIPES) - 1),
           group_seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=200, deadline=None)
    def test_random_trace_parity(self, records, params_i, recipe_i,
                                 group_seed):
        recipe, caps = _RECIPES[recipe_i]
        n = len(records)
        gaps, kinds, deps, objs, lines = zip(*records)
        inst = (np.cumsum(np.asarray(gaps, dtype=np.int64)) + 1)
        stream = MissStream(
            inst=inst,
            vline=np.asarray(lines, dtype=np.int64) * 64,
            obj_id=np.asarray(objs, dtype=np.int32),
            dep=np.asarray(deps, dtype=bool),
            kind=np.asarray(kinds, dtype=np.int8),
            total_instructions=int(inst[-1]) + 10,
        )
        groups = (np.arange(n, dtype=np.int32) + group_seed) % len(caps)
        groups = groups.astype(np.int32)
        gaddrs = np.asarray(
            [(lines[i] * 64) % caps[groups[i]] for i in range(n)],
            dtype=np.int64)
        _assert_parity(stream, groups, gaddrs, _PARAMS[params_i], recipe)


# ---- whole pipeline: run(spec), cache keys, pinned digests ------------------


def _metrics_doc(metrics) -> dict:
    """Deterministic form of RunMetrics: meta carries a timestamp, so it
    is checked separately (fast_path flag) and dropped here."""
    doc = metrics.to_dict()
    doc.pop("meta", None)
    return doc


def _digest(metrics) -> str:
    blob = json.dumps(_metrics_doc(metrics), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestRunSpecParity:
    def test_single_core_run_matches_reference(self):
        spec = RunSpec(workload="mcf", config="Heter-config1",
                       policy="moca", n_accesses=6000)
        fast = run(spec)
        ref = run(dataclasses.replace(spec, fast_path=False))
        assert fast.to_dict()["meta"]["fast_path"] is True
        assert ref.to_dict()["meta"]["fast_path"] is False
        assert _metrics_doc(fast) == _metrics_doc(ref)

    def test_multicore_run_matches_reference(self):
        spec = RunSpec(workload="2L1B1N", config="Homogen-DDR3",
                       policy="homogen", n_accesses=3000)
        fast = run(spec)
        ref = run(dataclasses.replace(spec, fast_path=False))
        assert fast.to_dict()["meta"]["fast_path"] is True
        assert ref.to_dict()["meta"]["fast_path"] is False
        assert _metrics_doc(fast) == _metrics_doc(ref)


class TestCacheKeyStability:
    """Default-valued specs must keep their pre-fast-path cache keys, so
    warm sweep caches survive the upgrade.  Forced-reference runs are a
    distinct request and get their own key."""

    def test_single_spec_key_pinned(self):
        spec = RunSpec(workload="mcf", config="Heter-config1",
                       policy="moca", n_accesses=20_000)
        assert spec.key() == ("ae1e8ff4bc9a4062327d5be316a5a7cc"
                              "7b085a027a491c01b7d33ecedb1e8e91")

    def test_multi_spec_key_pinned(self):
        spec = RunSpec(workload="2L1B1N", config="Homogen-DDR3",
                       policy="homogen", n_accesses=10_000)
        assert spec.key() == ("290a5b050d60590042ef88249cef7058"
                              "7b5ee9bfd17655ff5f589bdfee686c33")

    def test_forced_reference_gets_distinct_key(self):
        spec = RunSpec(workload="mcf", config="Heter-config1",
                       policy="moca", n_accesses=20_000)
        off = dataclasses.replace(spec, fast_path=False)
        assert off.key() != spec.key()
        assert off.canonical()["fast_path"] is False
        assert "fast_path" not in spec.canonical()
