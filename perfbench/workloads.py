"""The benchmark's three workloads: fixed lists of ``RunSpec`` units.

Each workload is a closed loop with one client: the engine resolves the
list serially (``REPRO_WORKERS=1``) in a fresh process.  The seed only
selects the runtime input variant, so every seed runs the same program
on an independent, equally sized perturbation of the same applications;
profiling always uses ``train``.

Why these three (README.md has the measured splits):

* ``front-cold`` -- every stock app, two replays each, empty stores:
  each app's trace is synthesized, filtered and profiled to feed only
  two replays, so synthesis and the cache filter weigh most here.
* ``replay-warm`` -- four apps across the six fig08 columns with the
  miss-stream store primed by another process: replay dominates, and
  the store serves reads instead of writes.
* ``mix-cold`` -- two 4-core mixes: replay runs one episode at a time
  through ``repro.sim.multi``'s heap interleave, the path a single-core
  replay kernel bypasses.
"""

from __future__ import annotations

from dataclasses import dataclass

# The lists below are spelled out rather than read from the program, so
# the benchmark's inputs stay fixed when the program gains applications
# or figure columns.

#: Stock single-core application order (``repro.workloads.spec.APPS``).
ALL_APPS = ("mcf", "milc", "libquantum", "disparity", "mser", "lbm",
            "tracking", "gcc", "sift", "stitch")

#: The six single-core figure columns (``SINGLE_SYSTEMS``):
#: (config, policy) pairs.
FIG08_COLUMNS = (
    ("Homogen-DDR3", "homogen"),
    ("Homogen-RL", "homogen"),
    ("Homogen-HBM", "homogen"),
    ("Homogen-LP", "homogen"),
    ("Heter-config1", "heter-app"),
    ("Heter-config1", "moca"),
)

#: The two ends of ``moca_edp_ratio``.
BASELINE = ("Homogen-DDR3", "homogen")
MOCA = ("Heter-config1", "moca")

#: run.py's default seed (input ``ref``).
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    #: Applications (single-core) or mix names (4-core).
    groups: tuple[str, ...]
    #: (config, policy) columns run for every group.
    columns: tuple[tuple[str, str], ...]
    #: Trace length per core.
    n_accesses: int
    #: Prime the miss-stream store in a separate process before the
    #: measured one starts.
    primed: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload("front-cold", ALL_APPS, (BASELINE, MOCA), 30_000),
        Workload("replay-warm", ("mcf", "milc", "libquantum", "gcc"),
                 FIG08_COLUMNS, 30_000, primed=True),
        Workload("mix-cold", ("2L1B1N", "1L3B"),
                 (BASELINE, ("Heter-config1", "heter-app"), MOCA), 25_000),
    )
}


def input_for_seed(seed: int) -> str:
    """Runtime input variant for a seed: ``ref`` for 1, ``ref<k>`` else."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return "ref" if seed == 1 else f"ref{seed}"


def specs(workload: Workload, seed: int) -> list:
    """The workload's ``RunSpec`` units, group-major."""
    from repro.sim.spec import RunSpec

    inp = input_for_seed(seed)
    return [RunSpec(workload=g, config=c, policy=p,
                    n_accesses=workload.n_accesses, input_name=inp)
            for g in workload.groups for c, p in workload.columns]

