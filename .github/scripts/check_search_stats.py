"""Check the hits and --stats records of one search run serially and in parallel.

Usage: python3 .github/scripts/check_search_stats.py [--screened] SERIAL_OUT SERIAL_ERR [PARALLEL_OUT PARALLEL_ERR ...]

Each run is given as two files: the stdout of ``spdcsim search ...
--stats``, and its stderr, whose last line is the stats record.  Every
run must print one ``hit `` line per hit its record counts as
``accepted``.  The serial record must count fewer symmetry classes than
distinct setups, and fewer distinct setups than trials (the score cache
and the classes both merge something); with ``--screened``, the screen
must also have skipped some setups and no more than were drawn.  Every
parallel record must equal the serial one apart from the timing fields,
since the counts do not depend on the worker count.
"""

from __future__ import annotations

import json
import sys

TIMING = {"draw_s", "score_s", "trials_per_s"}


def record(out_path: str, err_path: str) -> dict | str:
    """The run's stats record, or what is wrong with its hit lines."""
    with open(err_path) as lines:
        stats = json.loads(lines.read().splitlines()[-1])
    with open(out_path) as lines:
        hits = sum(line.startswith("hit ") for line in lines)
    if hits != stats["accepted"]:
        return f"{out_path}: {hits} hit lines, but {err_path} counts {stats['accepted']} accepted"
    return stats


def main(args: list[str]) -> int:
    screened = args[:1] == ["--screened"]
    paths = args[1:] if screened else args
    if not paths or len(paths) % 2:
        print(__doc__)
        return 2
    runs = list(zip(paths[::2], paths[1::2]))
    serial = record(*runs[0])
    if isinstance(serial, str):
        print(serial)
        return 1
    serial_path = runs[0][1]
    if not serial["classes"] < serial["evaluated"] < serial["trials"]:
        print(f"{serial_path}: expected classes < evaluated < trials in {serial}")
        return 1
    if screened and not 0 < serial["screened"] <= serial["evaluated"]:
        print(f"{serial_path}: expected 0 < screened <= evaluated in {serial}")
        return 1
    counts = {name: value for name, value in serial.items() if name not in TIMING}
    print(counts)
    for run in runs[1:]:
        parallel = record(*run)
        if isinstance(parallel, str):
            print(parallel)
            return 1
        parallel = {name: value for name, value in parallel.items() if name not in TIMING}
        print(parallel)
        if parallel != counts:
            print(f"{run[1]}: stats differ from {serial_path}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
