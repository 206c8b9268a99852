"""Property-based parity: synthesis kernel vs reference chunk loop.

The compiled trace-synthesis kernel (``repro.trace.synth``) claims
bit-exactness with the reference builder loop — same columns, same
instruction counter, same final RNG state — for every supported
behaviour mix and every BitGenerator.  Hypothesis sweeps the behaviour
space (all five patterns, geometric gap means straddling numpy's two
sampling paths, burst/write/dependency parameters, multi-object mixes)
and holds the kernel to that claim.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import OBS
from repro.trace import synth as kernel
from repro.trace.builder import ObjectBehavior, TraceBuilder
from repro.util import ckernel
from repro.util.rng import stream

#: gap_mean values straddle the numpy geometric sampler's two regimes:
#: the search path (p >= 1/3, i.e. gap_mean <= 3) and the
#: exponential-ziggurat path (p < 1/3), including the 3.0 boundary.
_GAP_MEANS = st.one_of(
    st.none(),
    st.sampled_from([1.0, 2.0, 3.0]),
    st.floats(min_value=3.0, max_value=40.0,
              allow_nan=False, allow_infinity=False),
)


@st.composite
def behaviors(draw, index=0):
    pattern = draw(st.sampled_from(
        ["seq", "strided", "rand", "chase", "hotspot"]))
    return ObjectBehavior(
        name=f"obj{index}",
        size_bytes=draw(st.integers(min_value=64, max_value=1 << 20)),
        weight=draw(st.floats(min_value=0.05, max_value=10.0)),
        pattern=pattern,
        burst_mean=draw(st.floats(min_value=1.0, max_value=128.0)),
        write_frac=draw(st.floats(min_value=0.0, max_value=1.0)),
        stride=draw(st.sampled_from([8, 24, 64, 256, 4096])),
        hot_fraction=draw(st.floats(min_value=0.01, max_value=1.0)),
        hot_weight=draw(st.floats(min_value=0.0, max_value=1.0)),
        dep_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        gap_mean=draw(_GAP_MEANS),
        site=index,
    )


@st.composite
def behavior_lists(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return [draw(behaviors(index=i)) for i in range(n)]


def _build_both(behaviors_list, n_accesses, *, mem_per_ki=100.0):
    """Build the same trace twice (kernel, reference); return both plus
    the final RNG states."""
    out = []
    for fast in (True, False):
        builder = TraceBuilder(list(behaviors_list), mem_per_ki=mem_per_ki)
        rng = stream("parity", n_accesses)
        if fast:
            assert kernel.supported(builder, rng), \
                "strategy generated an unsupported config"
        trace = builder.build(n_accesses, rng, fast_path=fast)
        out.append((trace, rng.bit_generator.state))
    return out


def _assert_identical(fast, ref):
    (t_fast, s_fast), (t_ref, s_ref) = fast, ref
    np.testing.assert_array_equal(t_fast.inst, t_ref.inst)
    np.testing.assert_array_equal(t_fast.vaddr, t_ref.vaddr)
    np.testing.assert_array_equal(t_fast.is_write, t_ref.is_write)
    np.testing.assert_array_equal(t_fast.dep, t_ref.dep)
    np.testing.assert_array_equal(t_fast.obj_id, t_ref.obj_id)
    assert t_fast.total_instructions == t_ref.total_instructions
    assert s_fast == s_ref, "kernel consumed a different RNG word count"


class TestKernelParity:
    @given(behavior_lists(), st.integers(min_value=1, max_value=6000))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_across_behavior_space(self, bs, n):
        fast, ref = _build_both(bs, n)
        _assert_identical(fast, ref)

    @given(behaviors(), st.floats(min_value=10.0, max_value=2000.0))
    @settings(max_examples=25, deadline=None)
    def test_mem_intensity_sweep(self, b, mem_per_ki):
        """The default inter-access gap depends on mem_per_ki; the
        kernel must reproduce the rounding at every intensity."""
        fast, ref = _build_both([b], 2000, mem_per_ki=mem_per_ki)
        _assert_identical(fast, ref)

    def test_single_access_trace(self):
        b = ObjectBehavior("one", 4096, 1.0, pattern="rand")
        fast, ref = _build_both([b], 1)
        _assert_identical(fast, ref)

    def test_zero_weight_object_skipped_identically(self):
        """A never-scheduled behaviour must not perturb either engine
        (the reference never evaluates it; supported() ignores it)."""
        bs = [ObjectBehavior("hot", 65536, 1.0, pattern="hotspot"),
              ObjectBehavior("dead", 4096, 0.0, pattern="seq")]
        fast, ref = _build_both(bs, 3000)
        _assert_identical(fast, ref)

    def test_chase_forces_dependencies(self):
        bs = [ObjectBehavior("list", 1 << 18, 1.0, pattern="chase",
                             dep_prob=0.0, gap_mean=25.0)]
        fast, ref = _build_both(bs, 4000)
        _assert_identical(fast, ref)
        assert bool(ref[0].dep[1:].all() or len(ref[0].dep) <= 1)


class TestKernelDispatch:
    def _builder(self):
        return TraceBuilder([ObjectBehavior("o", 8192, 1.0)])

    def test_unsupported_configs_decline(self):
        """Only builds the reference raises on mid-build decline; a 4 GiB+
        object and a non-PCG64 bit generator are supported (see
        TestKernelCoverage)."""
        rng = stream("disp", 1)
        assert not kernel.supported(
            TraceBuilder([ObjectBehavior("tiny", 4, 1.0, pattern="seq")]),
            rng)
        assert not kernel.supported(
            TraceBuilder([ObjectBehavior("bad", 4096, 1.0, pattern="hotspot",
                                         hot_fraction=0.0)]), rng)
        assert not kernel.supported(
            TraceBuilder([ObjectBehavior("nogap", 4096, 1.0,
                                         gap_mean=float("inf"))]), rng)
        assert not kernel.supported(self._builder(),
                                    np.random.RandomState(1))
        assert kernel.supported(
            TraceBuilder([ObjectBehavior("huge", 1 << 33, 1.0,
                                         pattern="rand")]), rng)
        assert kernel.supported(
            self._builder(), np.random.Generator(np.random.MT19937(1)))

    def test_fast_path_false_uses_reference(self, monkeypatch):
        def boom(*a, **k):
            raise AssertionError("kernel invoked despite fast_path=False")
        monkeypatch.setattr(kernel, "iter_kernel_blocks", boom)
        self._builder().build(500, stream("disp", 2), fast_path=False)

    def test_kill_switch_env_disables_kernel(self, monkeypatch):
        def boom(*a, **k):
            raise AssertionError("kernel invoked despite REPRO_FAST_PATH=0")
        monkeypatch.setattr(kernel, "iter_kernel_blocks", boom)
        monkeypatch.setenv("REPRO_FAST_PATH", "0")
        self._builder().build(500, stream("disp", 3), fast_path=None)

    def test_default_dispatch_reaches_kernel(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST_PATH", raising=False)
        called = {}
        real = kernel.iter_kernel_blocks

        def spy(*a, **k):
            called["yes"] = True
            return real(*a, **k)
        monkeypatch.setattr(kernel, "iter_kernel_blocks", spy)
        self._builder().build(500, stream("disp", 4), fast_path=None)
        assert called.get("yes")


#: One behaviour of every pattern, both gap regimes and all dep modes.
_MIX = [
    ObjectBehavior("s", 1 << 16, 1.0, pattern="seq", gap_mean=2.0),
    ObjectBehavior("t", 1 << 18, 0.7, pattern="strided", stride=200,
                   dep_prob=0.3),
    ObjectBehavior("r", 1 << 20, 0.8, pattern="rand", gap_mean=12.0),
    ObjectBehavior("c", 1 << 19, 0.5, pattern="chase", burst_mean=5.0),
    ObjectBehavior("h", 1 << 17, 0.9, pattern="hotspot", hot_fraction=0.05,
                   dep_prob=1.0),
]


class _CountingGenerator(np.random.Generator):
    """A Generator that counts its ``choice`` calls (schedule draws)."""

    choices = 0

    def choice(self, *args, **kwargs):
        self.choices += 1
        return super().choice(*args, **kwargs)


def _state(rng) -> str:
    """The bit generator's state, comparable across array-valued states."""
    return json.dumps(rng.bit_generator.state, sort_keys=True,
                      default=lambda a: a.tolist())


class TestKernelCoverage:
    @pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox,
                                        np.random.SFC64])
    def test_other_bit_generators(self, bitgen):
        out = []
        for fast in (True, False):
            rng = np.random.Generator(bitgen(20260))
            assert kernel.supported(TraceBuilder(_MIX), rng)
            trace = TraceBuilder(_MIX).build(6000, rng, fast_path=fast)
            out.append((trace, _state(rng)))
        _assert_identical(*out)

    def test_schedule_redraw_branch(self):
        """A rare, very long burst holds half the access share, so the
        first schedule (sized on the mean burst) runs out of chunks and
        the reference re-draws it; the kernel must re-draw identically."""
        bs = [ObjectBehavior("short", 4096, 1.0, burst_mean=1.0),
              ObjectBehavior("long", 1 << 20, 1.0, pattern="rand",
                             burst_mean=1e6)]
        out, draws = [], []
        for fast in (True, False):
            rng = _CountingGenerator(np.random.PCG64(7))
            trace = TraceBuilder(bs).build(10_000, rng, fast_path=fast)
            out.append((trace, rng.bit_generator.state))
            draws.append(rng.choices)
        assert draws[0] == draws[1] >= 2
        _assert_identical(*out)

    def test_parameters_the_reference_never_reads(self):
        """A zero-weight behaviour with a 2**70-byte object and a
        non-hotspot one with a NaN hot fraction: the reference never
        evaluates either, so the kernel must not trip on them."""
        bs = [ObjectBehavior("r", 1 << 16, 1.0, pattern="rand",
                             hot_fraction=float("nan")),
              ObjectBehavior("dead", 1 << 70, 0.0, pattern="seq")]
        fast, ref = _build_both(bs, 5000)
        _assert_identical(fast, ref)

    def test_object_of_8_gib(self):
        bs = [ObjectBehavior("huge", 1 << 33, 1.0, pattern="rand"),
              ObjectBehavior("hot", 1 << 33, 0.5, pattern="hotspot",
                             hot_fraction=0.75)]
        fast, ref = _build_both(bs, 4000)
        _assert_identical(fast, ref)
        assert int(ref[0].vaddr.max() - ref[0].vaddr.min()) > 1 << 32


def _kernel_rows():
    return _build_both(_MIX, 3000)[0]


class TestKernelFallback:
    """Without the kernel, builds asking for it warn once and give the
    kernel's rows from the reference loop."""

    def _assert_falls_back(self, monkeypatch, capsys):
        want = _kernel_rows()
        monkeypatch.setattr(kernel, "_KERNEL", None)
        OBS.reset()
        capsys.readouterr()
        for _ in range(2):
            _assert_identical(_kernel_rows(), want)
        assert kernel.synth_kernel() is None
        err = capsys.readouterr().err
        assert err.count("synthesis kernel unavailable") == 1
        assert list(OBS._warned) == ["synthesis-kernel"]
        OBS.reset()

    def test_no_compiler(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ckernel, "cache_dirs",
                            lambda source: iter([tmp_path]))
        monkeypatch.setattr(ckernel, "compiler", lambda: None)
        self._assert_falls_back(monkeypatch, capsys)

    def test_missing_npyrandom_archive(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(kernel, "_npyrandom",
                            lambda: tmp_path / "libnpyrandom.a")
        self._assert_falls_back(monkeypatch, capsys)
