"""Fault injection: apply a :class:`FaultPlan` to live simulation state.

Three entry points, one per layer the plan can touch:

* :func:`apply_system_faults` — derate a channel group's device timings
  on an already-built :class:`~repro.memctrl.system.MemorySystem`;
* :func:`arm_allocator` — offline/shrink frame pools on an
  :class:`~repro.vm.allocator.OSPageAllocator`, immediately or after
  ``trigger_page`` allocations (mid-run pressure);
* :func:`apply_lut_faults` — drop or scramble entries of a
  :class:`~repro.moca.profiler.ProfiledApp`'s LUT before classification.

All three are deterministic: the only randomness comes from named
:func:`repro.util.rng.stream` generators keyed by the plan's seed, so a
faulted :class:`~repro.sim.spec.RunSpec` reproduces bit-identically.
Roles absent from the target system are skipped silently — degrading a
module a machine does not have is a no-op, not an error.
"""

from __future__ import annotations

import dataclasses

from repro.faults.plan import FaultPlan
from repro.obs.registry import OBS
from repro.util.rng import stream

__all__ = ["apply_system_faults", "arm_allocator", "apply_lut_faults"]


# ---- timing faults ----------------------------------------------------------


def apply_system_faults(memsys, plan: FaultPlan) -> None:
    """Derate the targeted group's modules in place.

    Channel groups are keyed by role name (``config.build()`` builds them
    that way), so ``plan.degrade_role`` addresses the group directly.
    """
    if not plan.has_timing_fault:
        return
    idx = memsys.group_index.get(plan.degrade_role)
    if idx is None:
        return
    group = memsys.groups[idx]
    derated = group.timing.scaled(plan.degrade_factor)
    group.timing = derated
    for module in group.modules:
        module.derate(derated)
    if OBS.enabled:
        OBS.add(f"fault.derate.{plan.degrade_role}")


# ---- capacity faults --------------------------------------------------------


def _apply_pool_faults(allocator, plan: FaultPlan) -> None:
    roles = allocator.roles
    if plan.offline_role is not None and plan.offline_role in roles:
        allocator.pools[roles[plan.offline_role]].offline()
        if OBS.enabled:
            OBS.add(f"fault.offline.{plan.offline_role}")
    if plan.shrink_role is not None and plan.shrink_role in roles:
        allocator.pools[roles[plan.shrink_role]].shrink(plan.shrink_fraction)
        if OBS.enabled:
            OBS.add(f"fault.shrink.{plan.shrink_role}")


def arm_allocator(allocator, plan: FaultPlan) -> None:
    """Install the plan's capacity faults on an allocator.

    ``trigger_page == 0`` applies them before the first allocation;
    otherwise the allocator trips them just before page request
    ``trigger_page + 1`` (splitting an object's run there if need be),
    modelling a module that fails *while* the workload is being placed.
    """
    if not plan.has_capacity_fault:
        return
    if plan.trigger_page <= 0:
        _apply_pool_faults(allocator, plan)
        return
    allocator.arm_fault(plan.trigger_page,
                        lambda: _apply_pool_faults(allocator, plan))


# ---- guidance (LUT) faults --------------------------------------------------


def apply_lut_faults(profiled, plan: FaultPlan):
    """Return a copy of ``profiled`` with its LUT degraded per the plan.

    * *drop*: the selected entries vanish — their objects are unknown at
      runtime and default to the power (N-type) partition, exactly like
      the paper's unprofiled pages;
    * *scramble*: the selected entries swap their accumulated statistics
      among themselves (cyclically), emulating guidance collected on a
      mismatched training input.  Names stay put, so the wrong numbers
      classify the right objects.

    Selection and the swap permutation are deterministic in
    ``(app, plan.seed)``.
    """
    from repro.moca.lut import ProfileLUT

    if not plan.has_lut_fault:
        return profiled
    lut: ProfileLUT = profiled.lut
    names = sorted(lut.names(), key=str)
    kept = lut.clone()

    if plan.lut_drop_fraction > 0.0:
        rng = stream("faults", "lut-drop", profiled.app_name, plan.seed)
        dropped = 0
        for name in names:
            if rng.random() < plan.lut_drop_fraction:
                kept.remove(name)
                dropped += 1
        if OBS.enabled:
            OBS.add("fault.lut_dropped", dropped)

    if plan.lut_scramble_fraction > 0.0:
        rng = stream("faults", "lut-scramble", profiled.app_name, plan.seed)
        victims = [n for n in names
                   if n in kept and rng.random() < plan.lut_scramble_fraction]
        if len(victims) >= 2:
            profiles = [kept.get(n) for n in victims]
            stats = [(p.size_bytes, p.accesses, p.llc_misses, p.load_misses,
                      p.stall_cycles, p.kilo_instructions) for p in profiles]
            # Cyclic shift: every victim receives a different victim's
            # numbers, so the scramble is never a silent identity.
            stats = stats[1:] + stats[:1]
            for p, (size, acc, llc, load, stall, ki) in zip(profiles, stats):
                p.size_bytes = size
                p.accesses = acc
                p.llc_misses = llc
                p.load_misses = load
                p.stall_cycles = stall
                p.kilo_instructions = ki
            if OBS.enabled:
                OBS.add("fault.lut_scrambled", len(victims))

    return dataclasses.replace(profiled, lut=kept)
