"""The command line's outputs on the corpus, against ``data/cli_golden.json``.

The digests were written by ``data/make_cli_golden.py``: for each
corpus file, stdout, stderr and the exit code of ``run``, ``run
--json``, ``run --no-postselect``, ``srv``, ``efficiency 4 2
--simulate`` and ``fidelity --target ghz:{n}:2`` with ``{n}`` the
file's detector count, each run through ``python -m spdcsim.cli``.
Any change to a printed byte or an exit code fails here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("make_cli_golden", DATA / "make_cli_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

GOLDEN = json.loads((DATA / "cli_golden.json").read_text())


def test_cli_golden_covers_the_corpus_and_every_command():
    assert sorted(GOLDEN) == [path.stem for path in golden.corpus()]
    assert all(sorted(entry) == sorted(golden.COMMANDS) for entry in GOLDEN.values())


@pytest.mark.parametrize("path", golden.corpus(), ids=lambda path: path.stem)
def test_cli_outputs_are_byte_identical(path):
    assert golden.replay(path) == GOLDEN[path.stem]
