"""Regenerate ``golden.json``, the committed row digests.

Run from the repository root::

    python3 perfbench/make_golden.py --seeds 0-10

Runs one untraced pass of every workload for each seed and records each
unit's SHA-256 of ``RunMetrics.to_dict()`` without ``meta``.  Only do this
when a change is meant to move the simulated numbers, and say why in the
change's notes: the digests are what ``run.py`` checks rows against.
"""

from __future__ import annotations

import argparse
import json

import run
import workloads


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=[1],
                    help="inclusive range such as 0-10 (default: 1)")
    args = ap.parse_args()
    golden = json.loads(run.GOLDEN.read_text())
    for name, workload in workloads.WORKLOADS.items():
        for seed in args.seeds:
            (p,) = run.measure(workload, seed, 0.0, trace=False)
            if None in p["digests"].values():
                raise SystemExit(f"{name} seed {seed}: a unit raised")
            golden.setdefault(name, {})[str(seed)] = p["digests"]
            print(f"{name} seed {seed}: {len(p['digests'])} rows")
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                          + "\n")


if __name__ == "__main__":
    main()
