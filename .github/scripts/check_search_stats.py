"""Check the --stats records of one search run serially and in parallel.

Usage: python3 .github/scripts/check_search_stats.py [--screened] SERIAL [PARALLEL ...]

Each file is the stderr of ``spdcsim search ... --stats``; its last line
is the stats record.  The serial record must count fewer symmetry classes
than distinct setups, and fewer distinct setups than trials (the score
cache and the classes both merge something); with ``--screened``, the
screen must also have skipped some setups and no more than were drawn.
Every parallel record must equal the serial one apart from the timing
fields, since the counts do not depend on the worker count.
"""

import json
import sys

TIMING = {"draw_s", "score_s", "trials_per_s"}


def record(path: str) -> dict:
    with open(path) as lines:
        return json.loads(lines.read().splitlines()[-1])


def main(args: list[str]) -> int:
    screened = args[:1] == ["--screened"]
    serial_path, *parallel_paths = args[1:] if screened else args
    serial = record(serial_path)
    if not serial["classes"] < serial["evaluated"] < serial["trials"]:
        print(f"{serial_path}: expected classes < evaluated < trials in {serial}")
        return 1
    if screened and not 0 < serial["screened"] <= serial["evaluated"]:
        print(f"{serial_path}: expected 0 < screened <= evaluated in {serial}")
        return 1
    counts = {name: value for name, value in serial.items() if name not in TIMING}
    print(counts)
    for path in parallel_paths:
        parallel = {name: value for name, value in record(path).items() if name not in TIMING}
        print(parallel)
        if parallel != counts:
            print(f"{path}: stats differ from {serial_path}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
