"""Write ``engine_golden.json``: sha256 digests of the engine's outputs.

    PYTHONPATH=src python tests/data/make_engine_golden.py

For each ``experiments/*.exp`` file, and for each ``ghz_layout`` of the
ladder at two couplings, it records the digest of ``serialize()`` of the
full state and of the post-selected state, each with and without
``creation_only``, with the term counts, the ``repr`` of the success
weights and, for the ladder, the exact efficiency as a fraction string.
``tests/test_golden.py`` recomputes them and compares bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

from spdcsim import analysis, dsl  # noqa: E402
from spdcsim.experiment import post_select, run  # noqa: E402

LADDER = ((4, 2), (4, 3), (6, 2), (6, 3), (6, 4), (6, 5), (8, 2), (8, 3))
COUPLINGS = (0.1, 0.0731)
GOLDEN = HERE / "engine_golden.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(exp) -> dict:
    out = {}
    for tag, variant in (("", exp), ("creation_only.", replace(exp, creation_only=True))):
        full = run(variant)
        selected = post_select(full, variant.detectors)
        out[f"{tag}full"] = digest(full.serialize())
        out[f"{tag}terms"] = len(full)
        out[f"{tag}selected"] = digest(selected.state.serialize())
        out[f"{tag}success_weight"] = repr(selected.success_weight)
    return out


def compute() -> dict:
    corpus = {
        path.stem: record(dsl.parse(path.read_text()))
        for path in sorted((ROOT / "experiments").glob("*.exp"))
    }
    ladder = {}
    for g in COUPLINGS:
        for n, d in LADDER:
            exp = analysis.ghz_layout(n, d, g=g)
            entry = record(exp)
            entry["efficiency"] = str(analysis.efficiency_simulated(exp))
            ladder[f"{n}x{d}@{g!r}"] = entry
    return {"corpus": corpus, "ladder": ladder}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
