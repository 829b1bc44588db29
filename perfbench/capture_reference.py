"""Write perfbench/reference.json from the simulator in this checkout.

    python3 perfbench/capture_reference.py

Run it only at a commit whose outputs are trusted: every later benchmark
run is checked against what it writes.  Before writing, it checks that
the ladder's results do not depend on the coupling.
"""

from __future__ import annotations

import json

import check
import passes
from run import G_RANGE
from passes import analysis, dsl, experiment, search

CORPUS = (
    "asym_rank422_triggered",
    "found_ghz4_polarization",
    "found_highdim_shifters",
    "ghz4_3dim_oam",
    "ghz4_polarization",
    "ghz6_5dim_oam",
    "ghz6_polarization",
    "induced_coherence",
    "overlapped_double_pair",
    "two_photon_4dim_chain",
    "w4_polarization",
)


def corpus_entry(name: str) -> dict:
    exp = dsl.parse((passes.ROOT / "experiments" / f"{name}.exp").read_text())
    full = experiment.run(exp)
    selected = experiment.post_select(full, exp.detectors)
    return {"state": selected.state.serialize(), "success_weight": selected.success_weight, "terms": len(full)}


def ladder_entry(n: int, d: int, g: float) -> dict:
    exp = analysis.ghz_layout(n, d, g=g)
    full = experiment.run(exp)
    selected = experiment.post_select(full, exp.detectors)
    return {
        "fidelity": analysis.fidelity(selected.state, analysis.ghz_target(n, d)),
        "ranks": list(analysis.schmidt_rank_vector(selected.state, exp.detectors).ranks),
        "efficiency": str(analysis.efficiency_simulated(exp)),
        "terms": len(full),
    }


def main() -> None:
    reference = {"corpus": {name: corpus_entry(name) for name in CORPUS}, "ladder": {}, "search": {}}
    low, high = G_RANGE
    for n, d in passes.LADDER:
        entry = ladder_entry(n, d, 0.1)
        for g in (low + 1e-4, high - 1e-4):
            other = ladder_entry(n, d, g)
            if abs(other["fidelity"] - entry["fidelity"]) > check.AMPLITUDE_TOL or {
                k: v for k, v in other.items() if k != "fidelity"
            } != {k: v for k, v in entry.items() if k != "fidelity"}:
                raise SystemExit(f"ladder {n}x{d} depends on g: {entry} vs {other} at g={g}")
        reference["ladder"][f"{n}x{d}"] = entry
    for workload, (make, _) in passes.SEARCHES.items():
        budget = passes.REFERENCE_BUDGET[workload]
        indices = [h.trial_index for h in search.search(make(0, budget))]
        reference["search"][workload] = {"seed": 0, "budget": budget, "hit_indices": indices}
    check.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
