"""One benchmark pass in a fresh interpreter: set up, time one pass, check it.

    python3 perfbench/passes.py --workload evolve --seed 123 --g 0.1 [--traced --pass-id 1]

Set-up (imports, input construction and a warm-up on inputs disjoint
from the timed ones) ends at the monotonic time reported as ``ready``.
A calibration loop runs right before and right after the timed part.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from spdcsim import analysis, dsl, experiment  # noqa: E402

# The package re-exports the function ``search`` under the module's name.
search = importlib.import_module("spdcsim.search")

import check  # noqa: E402

LADDER = ((4, 2), (4, 3), (6, 2), (6, 3), (6, 4), (6, 5), (8, 2), (8, 3))

GHZ4_PATHS = ("a", "b", "c", "d")
MIXED_PATHS = ("t", "a", "b", "c")
# Warm-up searches rename the paths, keeping their sort order, so they
# never draw an element tuple of a timed pass.
WARM_NAMES = {"a": "u", "b": "v", "c": "w", "d": "x", "t": "z"}


def ghz4_config(seed: int, budget: int, paths=GHZ4_PATHS) -> search.SearchConfig:
    """The seeded search of acceptance criterion 13, at a smaller budget."""
    return search.SearchConfig(
        pool=search.ElementPool(paths=paths, kinds=("crystal",), crystal_modes=((0, 0), (1, 1))),
        detectors=paths,
        target=search.FidelityTarget(analysis.ghz_target(4, 2, paths), threshold=0.999),
        max_elements=4,
        budget=budget,
        seed=seed,
    )


def mixed_config(seed: int, budget: int, paths=MIXED_PATHS) -> search.SearchConfig:
    """All five element kinds; target ranks (4,2,2) on the three non-trigger paths."""
    return search.SearchConfig(
        pool=search.ElementPool(
            paths=paths,
            kinds=("crystal", "multimode", "shift", "phase", "relabel"),
            crystal_modes=((0, 0), (0, 1), (1, 0), (1, 1)),
        ),
        detectors=paths,
        target=search.SrvTarget(parties=paths[1:], ranks=(4, 2, 2)),
        max_elements=6,
        budget=budget,
        seed=seed,
    )


#: workload -> (config factory, trials per timed pass)
SEARCHES = {
    "search_ghz4": (ghz4_config, 4000),
    "search_mixed": (mixed_config, 2000),
}
#: Trials of the warm-up search, on renamed paths at seed 0.
WARM_BUDGET = 200
#: Trials of the default-seed search whose hit indices are in reference.json.
REFERENCE_BUDGET = {"search_ghz4": 900, "search_mixed": 800}


# -- evolve ------------------------------------------------------------------


def evolve_setup(reference: dict, checker: check.Checker, g: float):
    texts = {name: (ROOT / "experiments" / f"{name}.exp").read_text() for name in reference["corpus"]}
    layouts = {f"{n}x{d}": analysis.ghz_layout(n, d, g=g) for n, d in LADDER}
    targets = {f"{n}x{d}": analysis.ghz_target(n, d) for n, d in LADDER}
    # Warm-up: every ladder step on a layout with another coupling and paths.
    with checker.guard("warmup"):
        paths = ("u", "v", "w", "x")
        warm = dsl.parse(dsl.serialize(analysis.ghz_layout(4, 2, g=0.2, paths=paths)))
        selected = experiment.post_select(experiment.run(warm), warm.detectors)
        selected.state.serialize()
        checker.close("warmup.fidelity", analysis.fidelity(selected.state, analysis.ghz_target(4, 2, paths)), 1.0)
        checker.equal("warmup.ranks", analysis.schmidt_rank_vector(selected.state, paths).ranks, (2, 2, 2, 2))
        checker.fraction("warmup.efficiency", analysis.efficiency_simulated(warm), "1/5")
    return texts, layouts, targets


def evolve_pass(texts, layouts, targets):
    perf = time.perf_counter
    corpus, ladder, items = {}, {}, {}
    start = perf()
    for name, text in texts.items():
        t0 = perf()
        exp = dsl.parse(text)
        full = experiment.run(exp)
        selected = experiment.post_select(full, exp.detectors)
        corpus[name] = (selected.state.serialize(), selected.success_weight, len(full))
        items[f"corpus.{name}.s"] = perf() - t0
        items[f"corpus.{name}.terms"] = len(full)
    middle = perf()
    for key, exp in layouts.items():
        t0 = perf()
        full = experiment.run(exp)
        t1 = perf()
        selected = experiment.post_select(full, exp.detectors)
        fid = analysis.fidelity(selected.state, targets[key])
        ranks = analysis.schmidt_rank_vector(selected.state, exp.detectors).ranks
        t2 = perf()
        efficiency = analysis.efficiency_simulated(exp)
        t3 = perf()
        ladder[key] = (fid, ranks, efficiency, len(full))
        items[f"ladder.{key}.run_s"] = t1 - t0
        items[f"ladder.{key}.efficiency_s"] = t3 - t2
        items[f"ladder.{key}.terms"] = len(full)
    end = perf()
    parts = {"corpus_s": middle - start, "ladder_s": end - middle}
    return end - start, parts, items, (corpus, ladder)


def evolve_check(reference: dict, checker: check.Checker, outputs) -> None:
    corpus, ladder = outputs
    for name, (state_text, weight, terms) in corpus.items():
        want = reference["corpus"][name]
        with checker.guard(f"corpus.{name}"):
            checker.state(f"corpus.{name}.state", state_text, want["state"])
        checker.weight(f"corpus.{name}.success_weight", weight, want["success_weight"])
        checker.equal(f"corpus.{name}.terms", terms, want["terms"])
    for key, (fid, ranks, efficiency, terms) in ladder.items():
        want = reference["ladder"][key]
        checker.close(f"ladder.{key}.fidelity", fid, want["fidelity"])
        checker.equal(f"ladder.{key}.ranks", list(ranks), want["ranks"])
        checker.fraction(f"ladder.{key}.efficiency", efficiency, want["efficiency"])
        checker.equal(f"ladder.{key}.terms", terms, want["terms"])


# -- search ------------------------------------------------------------------


def check_hits(checker: check.Checker, label: str, config: search.SearchConfig, hits) -> None:
    """Re-score every hit and round-trip it through the experiment language."""
    for hit in hits:
        name = f"{label}.{hit.trial_index}"
        with checker.guard(name):
            score = search.evaluate(hit.experiment, config.target)
            checker.equal(f"{name}.score", score, hit.score)
            if isinstance(config.target, search.FidelityTarget):
                checker.expect(f"{name}.accepted", None if score >= config.target.threshold else "below threshold")
            else:
                checker.equal(f"{name}.accepted", score, 1.0)
            checker.equal(f"{name}.roundtrip", dsl.parse(dsl.serialize(hit.experiment)), hit.experiment)


def search_setup(checker: check.Checker, workload: str, seed: int):
    make, budget = SEARCHES[workload]
    config = make(seed, budget)
    warm = make(0, WARM_BUDGET, tuple(WARM_NAMES[p] for p in config.detectors))
    with checker.guard("warmup"):
        check_hits(checker, "warmup", warm, search.search(warm, workers=1))
    return config


def reference_check(reference: dict, checker: check.Checker, workload: str) -> None:
    """Hits of the default seed must land on the recorded trial indices."""
    make, _ = SEARCHES[workload]
    config = make(0, REFERENCE_BUDGET[workload])
    with checker.guard("seed0"):
        hits = search.search(config, workers=1)
        checker.equal("seed0.hit_indices", [h.trial_index for h in hits], reference["search"][workload]["hit_indices"])
        check_hits(checker, "seed0", config, hits)


def search_pass(config: search.SearchConfig):
    start = time.perf_counter()
    hits = search.search(config, workers=1)
    elapsed = time.perf_counter() - start
    parts = {"search_s": elapsed, "trials_per_s": config.budget / elapsed, "hits": len(hits)}
    return elapsed, parts, {}, hits


# -- entry point -------------------------------------------------------------

#: Calibration samples taken right before and right after the timed part.
CAL_SAMPLES = 3


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of tuple sorts and dict updates.

    It does the kind of work the simulator does without touching it, so
    the timed part divided by it cancels most of the CPU-speed swings of
    a shared host while still moving with every change to spdcsim.
    """
    counts: dict = {}
    start = time.perf_counter()
    for i in range(50_000):
        key = tuple(sorted((((i * 7) % 13, 1), ((i * 3) % 11, 2))))
        counts[key] = counts.get(key, 0j) + complex(i)
    return time.perf_counter() - start



def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("evolve", *SEARCHES))
    parser.add_argument("--seed", type=int, required=True, help="search seed of this pass")
    parser.add_argument("--g", type=float, default=0.1, help="ladder coupling of this pass")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--spans", help="file for the spans of a traced pass")
    parser.add_argument("--reference-check", action="store_true", help="also check the default-seed search hits")
    args = parser.parse_args()

    reference = check.load_reference()
    checker = check.Checker()
    if args.workload == "evolve":
        texts, layouts, targets = evolve_setup(reference, checker, args.g)
    else:
        config = search_setup(checker, args.workload, args.seed)

    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer(args.pass_id)
        tracer.install()
    ready = time.monotonic()
    cal = [calibrate() for _ in range(CAL_SAMPLES)]
    if tracer is not None:
        tracer.enabled = True
    if args.workload == "evolve":
        timed_s, parts, items, outputs = evolve_pass(texts, layouts, targets)
    else:
        timed_s, parts, items, outputs = search_pass(config)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.enabled = False
    cal += [calibrate() for _ in range(CAL_SAMPLES)]

    if args.workload == "evolve":
        evolve_check(reference, checker, outputs)
    else:
        check_hits(checker, "hit", config, outputs)
        if args.reference_check:
            reference_check(reference, checker, args.workload)

    result = {
        "ready": ready,
        "timed_s": timed_s,
        "cal_s": statistics.median(cal),
        "parts": parts,
        "items": items,
        "rss_mb": rss_mb,
        "attempted": checker.attempted,
        "failures": checker.failures,
        "numpy": np.__version__,
    }
    if tracer is not None:
        trials = config.budget if args.workload != "evolve" else 0
        hits = len(outputs) if args.workload != "evolve" else 0
        result["layers"] = tracer.metrics(trials=trials, hits=hits)
        tracer.uninstall()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
