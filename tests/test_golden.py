"""The engine's outputs, bit for bit, against ``data/engine_golden.json``.

The digests were written by ``data/make_engine_golden.py`` before the
engine moved to packed occupation keys; any change to an amplitude's
last bit, a term count, a success weight or an exact efficiency fails
here.  Regenerate the file only for a change that means to move the
outputs, and say so.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from spdcsim import analysis, dsl

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("make_engine_golden", DATA / "make_engine_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

GOLDEN = json.loads((DATA / "engine_golden.json").read_text())
CORPUS = sorted((golden.ROOT / "experiments").glob("*.exp"))


def test_golden_covers_the_corpus_and_the_ladder():
    assert sorted(GOLDEN["corpus"]) == [path.stem for path in CORPUS]
    assert len(CORPUS) == 11
    assert len(GOLDEN["ladder"]) == len(golden.LADDER) * len(golden.COUPLINGS)


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_corpus_outputs_are_bit_identical(path):
    assert golden.record(dsl.parse(path.read_text())) == GOLDEN["corpus"][path.stem]


@pytest.mark.parametrize("g", golden.COUPLINGS)
@pytest.mark.parametrize("n, d", golden.LADDER)
def test_ladder_outputs_are_bit_identical(n, d, g):
    exp = analysis.ghz_layout(n, d, g=g)
    got = golden.record(exp)
    got["efficiency"] = str(analysis.efficiency_simulated(exp))
    assert got == GOLDEN["ladder"][f"{n}x{d}@{g!r}"]
