"""spdcsim benchmark: run the passes of one workload and print the result.

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every pass runs in its own fresh
interpreter (perfbench/passes.py), one at a time, the way users run
``spdcsim run`` and ``spdcsim search``; per-pass inputs (search seed,
ladder coupling) are drawn from ``--seed``.

``--trace 0`` starts passes until ``--seconds`` have elapsed (at least
MIN_PASSES) and reports the end-to-end metrics over passes.
``--trace 1`` runs one untraced pass and two traced passes on the same
inputs, reports the per-layer metrics, the tracing overhead, and checks
that every count repeats exactly.

The next-to-last stdout line is a JSON record of the environment and of
every pass (seeds and couplings, so any pass can be replayed); the last
line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import check  # noqa: E402

WORKLOADS = ("evolve", "search_ghz4", "search_mixed")
MIN_PASSES = 3
PASS_TIMEOUT_S = 170
#: The ladder's coupling is drawn per pass from this open interval.
G_RANGE = (0.05, 0.15)
#: Per-layer metrics that are counts and must repeat exactly on the same inputs.
COUNT_SUFFIXES = (".calls", ".terms", ".terms_in", ".terms_out", "search.trials", "distinct_frac", "accept_frac")


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def pass_inputs(workload: str, seed: int):
    """Endless stream of (search seed, ladder coupling) drawn from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1, 2**32), rng.uniform(*G_RANGE)


def run_pass(workload: str, seed: int, g: float, *, traced: bool = False, pass_id: int = 0) -> dict:
    """One pass in a fresh interpreter; the first pass of a run (id 0) also
    checks the default-seed search hits, after its timed part."""
    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", workload, "--seed", str(seed), "--g", repr(g)]
    if pass_id == 0:
        cmd.append("--reference-check")
    if traced:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{workload}-{seed}-{pass_id}.jsonl"
        cmd += ["--traced", "--pass-id", str(pass_id), "--spans", str(spans)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"pass of {workload} with seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result.update(seed=seed, g=g, setup_s=result["ready"] - spawned)
    return result


def median_of(passes: list[dict], key) -> float:
    return statistics.median(key(p) for p in passes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the running pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "spdcsim" / "__init__.py").is_file() or not (ROOT / "experiments").is_dir():
        print(f"no spdcsim source tree under {ROOT}: run from the root of a checkout", file=sys.stderr)
        return 2

    env = {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.executable,
        "python_version": platform.python_version(),
        "load_1min_at_start": os.getloadavg()[0],
    }
    reference = check.load_reference()
    planted, caught = check.self_check(reference)
    inputs = pass_inputs(args.workload, args.seed)
    start = time.monotonic()
    if args.trace == 0:
        passes = []
        while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
            passes.append(run_pass(args.workload, *next(inputs), pass_id=len(passes)))
    else:
        seed, g = next(inputs)
        passes = [run_pass(args.workload, seed, g)]
        passes += [run_pass(args.workload, seed, g, traced=True, pass_id=i) for i in (1, 2)]
    env["numpy"] = passes[0]["numpy"]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    correct = not failures and caught == planted

    summary: dict[str, float] = {
        "passes": len(passes),
        "pass_s": statistics.mean(p["timed_s"] for p in passes),
        "cal_s": statistics.mean(p["cal_s"] for p in passes),
    }
    if args.workload == "evolve":
        summary["corpus_s"] = median_of(passes, lambda p: p["parts"]["corpus_s"])
        summary["ladder_s"] = median_of(passes, lambda p: p["parts"]["ladder_s"])
    else:
        summary["trials_per_s"] = median_of(passes, lambda p: p["parts"]["trials_per_s"])

    if args.trace == 0:
        metrics = {
            "setup_s": (median_of(passes, lambda p: p["setup_s"]), "s"),
            # On shared hosts CPU speed can alternate between two levels every
            # few seconds, for minutes on end.  Dividing each pass by its own
            # calibration loop cancels most of that; the mean, not the median,
            # because per-pass values stay bimodal and the median jumps.
            "pass_cal": (statistics.mean(p["timed_s"] / p["cal_s"] for p in passes), "ratio"),
            "peak_rss_mb": (median_of(passes, lambda p: p["rss_mb"]), "MB"),
        }
    else:
        untraced, first, second = passes
        unstable = [
            name
            for name, value in first["layers"].items()
            if name.endswith(COUNT_SUFFIXES) and second["layers"][name] != value
        ]
        attempted += 1
        if unstable:
            failures.append(f"counts differ between two traced passes on the same inputs: {unstable}")
            correct = False
        metrics = {}
        for name, value in first["layers"].items():
            unit = _unit(name)
            if unit in ("count", "ratio"):
                metrics[name] = (value, unit)
            else:
                metrics[name] = ((value + second["layers"][name]) / 2, unit)
        traced_s = (first["timed_s"] + second["timed_s"]) / 2
        traced_cal = (first["timed_s"] / first["cal_s"] + second["timed_s"] / second["cal_s"]) / 2
        metrics["trace.untraced_s"] = (untraced["timed_s"], "s")
        metrics["trace.traced_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced["timed_s"], "s")
        # The same overhead with each pass divided by its calibration time,
        # so a change of host speed between the passes does not show as overhead.
        metrics["trace.overhead_frac"] = (traced_cal / (untraced["timed_s"] / untraced["cal_s"]) - 1, "ratio")
        for name in item_metrics(reference):
            metrics[name] = (untraced["items"].get(name, 0), _unit(name))

    summary["failed_frac"] = len(failures) / attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "self_check": {"planted": planted, "caught": caught},
        "summary": summary,
        "failures": failures,
        "passes": [
            {k: p[k] for k in ("seed", "g", "setup_s", "timed_s", "cal_s", "rss_mb", "parts", "attempted")} for p in passes
        ],
    }
    print(json.dumps({"perfbench": record}))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def item_metrics(reference: dict) -> list[str]:
    """Per-item timings and sizes, taken from the untraced pass of a traced run."""
    names = [f"corpus.{name}.{stat}" for name in reference["corpus"] for stat in ("s", "terms")]
    names += [f"ladder.{key}.{stat}" for key in reference["ladder"] for stat in ("run_s", "efficiency_s", "terms")]
    return names


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("ns_per_term"):
        return "ns"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
