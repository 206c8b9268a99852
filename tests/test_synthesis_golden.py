"""Committed digests of synthesized trace bytes.

Pins the columns (``inst``, ``vaddr``, ``is_write``, ``dep``,
``obj_id``), ``total_instructions`` and the final RNG state of every
stock application on its ``train`` and ``ref`` inputs at 30k accesses,
plus one chunked build, against ``golden/synthesis.json``.  The parity
tests show the two engines agree with each other; these digests show
that neither drifted from the bytes every figure was computed on.

The default engine is pinned on every case, the reference engine on
the ``train`` inputs (they cover every behaviour mix at half the cost).

Changing a digest is a deliberate act: regenerate with ::

    PYTHONPATH=src python tests/test_synthesis_golden.py --update-golden

and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.trace.builder import TraceBuilder
from repro.trace.chunked import build_chunked
from repro.util.rng import stream
from repro.workloads.inputs import _perturbed
from repro.workloads.spec import APPS, app

GOLDEN = Path(__file__).with_name("golden") / "synthesis.json"
N_ACCESSES = 30_000
INPUTS = ("train", "ref")
COLUMNS = ("inst", "vaddr", "is_write", "dep", "obj_id")
#: The chunked case: app, input, length and shard size.
CHUNKED = ("mcf", "ref", 45_000, 7_000)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _doc(columns: dict, total_instructions: int,
         rng: np.random.Generator) -> dict:
    doc = {name: _sha(np.ascontiguousarray(columns[name]).tobytes())
           for name in COLUMNS}
    doc["total_instructions"] = int(total_instructions)
    doc["rng_state"] = _sha(json.dumps(rng.bit_generator.state,
                                       sort_keys=True).encode())
    return doc


def _builder_and_rng(app_name: str, input_name: str, n: int):
    builder = TraceBuilder(list(_perturbed(app(app_name), input_name)))
    return builder, stream("trace", app_name, input_name, n)


def synth_digest(app_name: str, input_name: str,
                 fast_path: bool | None = None) -> dict:
    builder, rng = _builder_and_rng(app_name, input_name, N_ACCESSES)
    trace = builder.build(N_ACCESSES, rng, fast_path=fast_path)
    return _doc({name: getattr(trace, name) for name in COLUMNS},
                trace.total_instructions, rng)


def chunked_digest(directory: Path) -> dict:
    app_name, input_name, n, shard = CHUNKED
    builder, rng = _builder_and_rng(app_name, input_name, n)
    ct = build_chunked(builder, n, rng, directory, chunk_accesses=shard)
    trace = ct.materialize()
    assert ct.n_shards > 1
    return _doc({name: getattr(trace, name) for name in COLUMNS},
                trace.total_instructions, rng)


def _cases():
    return [(a, i) for a in sorted(APPS) for i in INPUTS]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_stock_app(golden):
    assert sorted(golden["builds"]) == sorted(f"{a}/{i}" for a, i in _cases())


@pytest.mark.parametrize("app_name,input_name", _cases())
def test_synthesis_bytes_are_pinned(golden, app_name, input_name):
    want = golden["builds"][f"{app_name}/{input_name}"]
    assert synth_digest(app_name, input_name) == want
    if input_name == "train":
        assert synth_digest(app_name, input_name, fast_path=False) == want


def test_chunked_build_bytes_are_pinned(golden, tmp_path):
    assert chunked_digest(tmp_path / "traces") == golden["chunked"]


def _regenerate() -> None:
    import tempfile

    builds = {f"{a}/{i}": synth_digest(a, i) for a, i in _cases()}
    with tempfile.TemporaryDirectory() as tmp:
        chunked = chunked_digest(Path(tmp) / "traces")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {"n_accesses": N_ACCESSES, "chunked_case": list(CHUNKED),
         "builds": builds, "chunked": chunked}, indent=1, sort_keys=True)
        + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update-golden"]:
        sys.exit(f"usage: {sys.argv[0]} --update-golden")
    _regenerate()
