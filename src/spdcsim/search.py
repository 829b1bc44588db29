"""Seeded rejection-sampling search for experiments producing target states.

Each trial draws an element list from a configurable pool, simulates it,
post-selects on the configured detectors, and scores the result against
the acceptance target.  Trial randomness comes from an independent
stream derived from ``(seed, trial_index)``, so results are identical
bit for bit no matter how trials are distributed over workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .analysis import fidelity, schmidt_rank_vector
from .elements import Crystal, Element, ModeShifter, MultimodeCrystal, PhaseShifter, Relabel
from .experiment import Experiment, post_select, run
from .fock import ModeLabel, StateVector

#: Mode lists a multimode crystal may draw.
MULTIMODE_LISTS = ((0, 1), (0, 1, 2), (0, 1, 2, 3))
#: Mode shifts a mode shifter may draw.
SHIFT_DELTAS = (-1, 1)
#: Phases a phase shifter may draw.
PHASE_VALUES = (math.pi / 2, math.pi, -math.pi / 2)
#: Coupling of every drawn crystal.
COUPLING = 0.1


@dataclass(frozen=True)
class FidelityTarget:
    """Accept experiments whose post-selected state matches ``state``."""

    state: StateVector
    threshold: float = 0.999

    def __post_init__(self):
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")


@dataclass(frozen=True)
class SrvTarget:
    """Accept experiments whose post-selected state has exact ranks."""

    parties: tuple[str, ...]
    ranks: tuple[int, ...]

    def __post_init__(self):
        if len(self.parties) != len(self.ranks):
            raise ValueError("one rank per party required")


Target = Union[FidelityTarget, SrvTarget]


@dataclass(frozen=True)
class ElementPool:
    """What the sampler may draw: paths, element kinds and crystal mode pairs.

    The other parameter choices are the module constants above.
    """

    paths: tuple[str, ...]
    kinds: tuple[str, ...] = ("crystal",)
    crystal_modes: tuple[tuple[int, int], ...] = ((0, 0), (1, 1))

    def __post_init__(self):
        known = {"crystal", "multimode", "shift", "phase", "relabel"}
        bad = set(self.kinds) - known
        if bad:
            raise ValueError(f"unknown element kinds {sorted(bad)}")
        if len(self.paths) < 2:
            raise ValueError("need at least two paths")


@dataclass(frozen=True)
class SearchConfig:
    pool: ElementPool
    detectors: tuple[str, ...]
    target: Target
    max_elements: int = 4
    budget: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.max_elements < 1:
            raise ValueError("max_elements must be >= 1")


@dataclass(frozen=True)
class SearchHit:
    experiment: Experiment
    score: float
    trial_index: int


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))


def _choice(rng: np.random.Generator, items: Sequence):
    return items[int(rng.integers(len(items)))]


def random_setup(rng: np.random.Generator, config: SearchConfig) -> Experiment:
    """Draw one candidate: uniform element count, kinds, and parameters."""
    pool = config.pool
    count = int(rng.integers(1, config.max_elements + 1))
    elements: list[Element] = []
    for _ in range(count):
        kind = _choice(rng, pool.kinds)
        if kind == "crystal":
            pair = rng.choice(len(pool.paths), size=2, replace=False)
            a, b = sorted(pool.paths[int(i)] for i in pair)
            mode_a, mode_b = _choice(rng, pool.crystal_modes)
            elements.append(Crystal(ModeLabel(a, mode_a), ModeLabel(b, mode_b), g=COUPLING))
        elif kind == "multimode":
            pair = rng.choice(len(pool.paths), size=2, replace=False)
            a, b = sorted(pool.paths[int(i)] for i in pair)
            modes = _choice(rng, MULTIMODE_LISTS)
            elements.append(MultimodeCrystal(a, b, modes=modes, g=COUPLING))
        elif kind == "shift":
            elements.append(ModeShifter(_choice(rng, pool.paths), _choice(rng, SHIFT_DELTAS)))
        elif kind == "phase":
            elements.append(PhaseShifter(_choice(rng, pool.paths), _choice(rng, PHASE_VALUES)))
        else:  # relabel
            pair = rng.choice(len(pool.paths), size=2, replace=False)
            elements.append(Relabel(pool.paths[int(pair[0])], pool.paths[int(pair[1])]))
    return Experiment(elements=tuple(elements), detectors=config.detectors)


def evaluate(exp: Experiment, target: Target) -> float:
    """Simulate, post-select, and score; empty selections score zero."""
    selected = post_select(run(exp), exp.detectors)
    if selected.state.is_zero() or selected.success_weight == 0.0:
        return 0.0
    if isinstance(target, FidelityTarget):
        return fidelity(selected.state, target.state)
    try:
        srv = schmidt_rank_vector(selected.state, target.parties)
    except ValueError:
        return 0.0
    return 1.0 if srv.ranks == target.ranks else 0.0


def _accepts(target: Target, score: float) -> bool:
    if isinstance(target, FidelityTarget):
        return score >= target.threshold
    return score == 1.0


def _run_block(config: SearchConfig, start: int, stop: int) -> list[SearchHit]:
    hits = []
    for trial in range(start, stop):
        exp = random_setup(_trial_rng(config.seed, trial), config)
        score = evaluate(exp, config.target)
        if _accepts(config.target, score):
            hits.append(SearchHit(exp, score, trial))
    return hits


def search(config: SearchConfig, *, workers: int = 1) -> list[SearchHit]:
    """Evaluate up to ``budget`` samples; hits come back in trial order.

    The per-trial random streams make the result independent of the
    worker count and of scheduling.
    """
    if workers <= 1:
        return _run_block(config, 0, config.budget)
    block = max(1, math.ceil(config.budget / (workers * 8)))
    spans = [
        (start, min(start + block, config.budget))
        for start in range(0, config.budget, block)
    ]
    hits: list[SearchHit] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for block_hits in pool.map(_search_block_star, [(config, a, b) for a, b in spans]):
            hits.extend(block_hits)
    return sorted(hits, key=lambda h: h.trial_index)


def _search_block_star(args: tuple[SearchConfig, int, int]) -> list[SearchHit]:
    return _run_block(*args)
