"""Process-wide fast-path kill switch (``REPRO_FAST_PATH``).

Every hot loop in the repo ships as a fast path — a C kernel (DRAM
replay, trace synthesis) or vectorized numpy (cache filter) — plus a
scalar reference implementation that stays the executable specification.
This module holds the one switch that flips *all* of them back to the
reference: ``REPRO_FAST_PATH=0`` re-derives a suspect result fleet-wide
— sweeps, profiling replays, migration epochs, and trace builds alike —
without editing any figure code.

Lives in ``util`` so the trace layer can consult it without importing
the cpu package (traces are built before any cache exists).
"""

from __future__ import annotations

import os

__all__ = ["fast_path_default"]


def fast_path_default() -> bool:
    """Process-wide fast-path default (``REPRO_FAST_PATH=0`` kills it)."""
    return os.environ.get("REPRO_FAST_PATH", "1") != "0"
