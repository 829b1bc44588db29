"""Write ``cli_golden.json``: sha256 digests of the command line's outputs.

    PYTHONPATH=src python tests/data/make_cli_golden.py

For each ``experiments/*.exp`` file it runs each command of
:data:`COMMANDS` through ``python -m spdcsim.cli``, from the repository
root with the file named relative to it and ``{n}`` its detector count,
and records the sha256 of stdout, the sha256 of stderr and the exit
code.
``tests/test_cli_golden.py`` replays them and compares.  Regenerate the
file only for a change that means to move the command line's output, and
say so.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from spdcsim.dsl import parse

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "cli_golden.json"

#: Each command's name in the golden file and its arguments; ``{file}``
#: is the experiment file and ``{n}`` the number of its detectors.
COMMANDS = {
    "run": ("run", "{file}"),
    "run --json": ("run", "{file}", "--json"),
    "run --no-postselect": ("run", "{file}", "--no-postselect"),
    "srv": ("srv", "{file}"),
    "efficiency 4 2 --simulate": ("efficiency", "4", "2", "--simulate", "{file}"),
    "fidelity --target ghz:{n}:2": ("fidelity", "{file}", "--target", "ghz:{n}:2"),
}


def corpus() -> list[Path]:
    return sorted((ROOT / "experiments").glob("*.exp"))


def replay(path: Path) -> dict:
    """Each command's ``{"stdout": sha256, "stderr": sha256, "exit": code}``
    on the experiment file ``path``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    fields = dict(file=str(path.relative_to(ROOT)), n=len(parse(path.read_text()).detectors))
    out = {}
    for command, argv in COMMANDS.items():
        done = subprocess.run(
            [sys.executable, "-m", "spdcsim.cli", *(arg.format(**fields) for arg in argv)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            timeout=120,
        )
        out[command] = {
            "stdout": hashlib.sha256(done.stdout).hexdigest(),
            "stderr": hashlib.sha256(done.stderr).hexdigest(),
            "exit": done.returncode,
        }
    return out


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({path.stem: replay(path) for path in corpus()}, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
