"""Seeded rejection-sampling search for experiments producing target states.

Each trial draws an element list from a configurable pool, simulates it,
post-selects on the configured detectors, and scores the result against
the acceptance target.  Trial randomness comes from an independent
stream derived from ``(seed, trial_index)``, so results are identical
bit for bit no matter how trials are distributed over workers.

A setup whose compiled key layout shows that it cannot produce a
coincidence scores 0 without being simulated (``evaluate``).

A trial's draw is a compact key, one small int per element.  Equal
setups draw equal keys, and each process of a search scores each
distinct key once: later trials with that key reuse the cached score
and build no ``Experiment`` unless they are hits.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .analysis import fidelity, schmidt_rank_vector
from .elements import Crystal, Element, ModeShifter, MultimodeCrystal, PhaseShifter, Relabel
from .experiment import Experiment, compile_run, post_select_keys, run_keys
from .fock import KeyLayout, ModeLabel, StateVector

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


@dataclass
class SearchStats:
    """What one search did, summed over its workers.

    ``evaluated`` counts cache misses, each scored once by ``evaluate``;
    every other trial is a cache hit.  ``screened`` counts the misses
    that ``evaluate`` scored 0 from the key layout alone, without
    simulating.  ``histogram`` counts the evaluated scores, screened ones
    included, in ten equal bins on [0, 1] for a fidelity target, or
    scores 0 and 1 for a rank target.  ``draw_s`` and ``score_s`` add up the
    workers' times; ``wall_s`` is the search's elapsed time.
    """

    trials: int
    accepted: int
    evaluated: int
    cache_hits: int
    screened: int
    draw_s: float
    score_s: float
    histogram: list[int]
    wall_s: float = 0.0

    def record(self) -> dict:
        """The stats as one JSON-ready mapping."""
        if len(self.histogram) == 10:
            labels = [f"[{k / 10:.1f},{(k + 1) / 10:.1f}{']' if k == 9 else ')'}" for k in range(10)]
        else:
            labels = ["0", "1"]
        return {
            "trials": self.trials,
            "trials_per_s": self.trials / self.wall_s if self.wall_s else 0.0,
            "accepted": self.accepted,
            "evaluated": self.evaluated,
            "cache_hits": self.cache_hits,
            "screened": self.screened,
            "draw_s": self.draw_s,
            "score_s": self.score_s,
            "score_histogram": dict(zip(labels, self.histogram)),
        }


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))


def _choice(rng: np.random.Generator, items: Sequence):
    return items[int(rng.integers(len(items)))]


# A drawn element is one int, an index into the elements the pool can draw.
# The index runs over five blocks, one per kind, each a mixed-radix number
# of the draw's parameter indices: crystal (pair, mode pair), multimode
# (pair, mode list), shift (path, delta), phase (path, phase) and relabel
# (source, target).  A pair is ``i * n + j`` over the path indices with
# ``i < j``, so the two orders of a crystal's paths give one index; a
# relabel keeps its order.


def _blocks(pool: ElementPool) -> tuple[int, int, int, int]:
    """First index of the multimode, shift, phase and relabel blocks."""
    n = len(pool.paths)
    multimode = n * n * len(pool.crystal_modes)
    shift = multimode + n * n * len(MULTIMODE_LISTS)
    phase = shift + n * len(SHIFT_DELTAS)
    return multimode, shift, phase, phase + n * len(PHASE_VALUES)


def _unordered_pair(rng: np.random.Generator, n: int) -> int:
    i, j = rng.choice(n, size=2, replace=False).tolist()
    return i * n + j if i < j else j * n + i


def _draw(rng: np.random.Generator, config: SearchConfig) -> tuple[int, ...]:
    """One candidate as a key: uniform element count, kinds, and parameters.

    Makes the RNG calls ``random_setup`` makes, in the same order.
    """
    pool = config.pool
    n = len(pool.paths)
    multimode, shift, phase, relabel = _blocks(pool)
    key = []
    for _ in range(int(rng.integers(1, config.max_elements + 1))):
        kind = _choice(rng, pool.kinds)
        if kind == "crystal":
            modes = len(pool.crystal_modes)
            key.append(_unordered_pair(rng, n) * modes + int(rng.integers(modes)))
        elif kind == "multimode":
            lists = len(MULTIMODE_LISTS)
            key.append(multimode + _unordered_pair(rng, n) * lists + int(rng.integers(lists)))
        elif kind == "shift":
            deltas = len(SHIFT_DELTAS)
            key.append(shift + int(rng.integers(n)) * deltas + int(rng.integers(deltas)))
        elif kind == "phase":
            phases = len(PHASE_VALUES)
            key.append(phase + int(rng.integers(n)) * phases + int(rng.integers(phases)))
        else:  # relabel
            source, target = rng.choice(n, size=2, replace=False).tolist()
            key.append(relabel + source * n + target)
    return tuple(key)


def _element(index: int, pool: ElementPool) -> Element:
    """The element a drawn index names; crystal paths sorted by name."""
    paths = pool.paths
    n = len(paths)
    multimode, shift, phase, relabel = _blocks(pool)
    if index >= relabel:
        source, target = divmod(index - relabel, n)
        return Relabel(paths[source], paths[target])
    if index >= phase:
        path, value = divmod(index - phase, len(PHASE_VALUES))
        return PhaseShifter(paths[path], PHASE_VALUES[value])
    if index >= shift:
        path, delta = divmod(index - shift, len(SHIFT_DELTAS))
        return ModeShifter(paths[path], SHIFT_DELTAS[delta])
    if index >= multimode:
        pair, modes = divmod(index - multimode, len(MULTIMODE_LISTS))
        a, b = sorted(paths[i] for i in divmod(pair, n))
        return MultimodeCrystal(a, b, modes=MULTIMODE_LISTS[modes], g=COUPLING)
    pair, modes = divmod(index, len(pool.crystal_modes))
    a, b = sorted(paths[i] for i in divmod(pair, n))
    mode_a, mode_b = pool.crystal_modes[modes]
    return Crystal(ModeLabel(a, mode_a), ModeLabel(b, mode_b), g=COUPLING)


def _build(key: tuple[int, ...], config: SearchConfig, table: dict[int, Element]) -> Experiment:
    """The experiment a key names, its elements shared through ``table``."""
    elements = []
    for index in key:
        element = table.get(index)
        if element is None:
            element = table[index] = _element(index, config.pool)
        elements.append(element)
    return Experiment(elements=tuple(elements), detectors=config.detectors)


def random_setup(rng: np.random.Generator, config: SearchConfig) -> Experiment:
    """Draw one candidate: uniform element count, kinds, and parameters."""
    return _build(_draw(rng, config), config, {})


# Setups this process's ``evaluate`` has screened out; ``_run_block``
# reports the growth over its trials as ``SearchStats.screened``.
_screened = 0


def evaluate(exp: Experiment, target: Target) -> float:
    """Simulate, post-select, and score; empty selections score zero.

    The experiment is compiled once (``compile_run``), and its key
    layout screens it before anything is evolved: a setup that cannot
    produce a coincidence scores ``0.0`` at once (:func:`_can_click`).
    Otherwise its packed terms are evolved and post-selected on keys
    (``post_select_keys``, the same selection as
    ``post_select(run(exp), exp.detectors)``) and scored.
    """
    global _screened
    elements, layout = compile_run(exp)
    if not _can_click(layout, exp.detectors, target):
        _screened += 1
        return 0.0
    selected = post_select_keys(run_keys(exp, elements, layout), layout, exp.detectors)
    if selected.state.is_zero() or selected.success_weight == 0.0:
        return 0.0
    if isinstance(target, FidelityTarget):
        return fidelity(selected.state, target.state)
    try:
        srv = schmidt_rank_vector(selected.state, target.parties)
    except ValueError:
        return 0.0
    return 1.0 if srv.ranks == target.ranks else 0.0


def _can_click(layout: KeyLayout, detectors: Sequence[str], target: Target) -> bool:
    """False only when the score is 0 whatever the amplitudes.

    A detector path without a block in the layout can hold no photon, so
    the n-fold selection is empty.  For a rank target, a party keeps one
    photon after selection, so its rank is at most its block's field
    count: a party without a block, or with fewer fields than its rank,
    cannot match (a party that is no detector holds no photon after
    selection, which ``schmidt_rank_vector`` refuses, also a 0).
    """
    blocks = layout.blocks
    if any(path not in blocks for path in detectors):
        return False
    if isinstance(target, SrvTarget):
        for party, rank in zip(target.parties, target.ranks):
            block = blocks.get(party)
            if block is None or block[2] < rank:
                return False
    return True


def _accepts(target: Target, score: float) -> bool:
    if isinstance(target, FidelityTarget):
        return score >= target.threshold
    return score == 1.0


def _run_block(
    config: SearchConfig,
    start: int,
    stop: int,
    table: dict[int, Element],
    scores: dict[tuple[int, ...], float],
) -> tuple[list[SearchHit], SearchStats]:
    """Trials ``start`` to ``stop``; each key not yet in ``scores`` is scored once.

    An experiment is built only to score a new key or to report a hit.
    """
    target = config.target
    bins = 10 if isinstance(target, FidelityTarget) else 2
    histogram = [0] * bins
    hits = []
    evaluated = cache_hits = 0
    draw_s = score_s = 0.0
    screened = _screened
    clock = time.perf_counter
    last = clock()
    for trial in range(start, stop):
        key = _draw(_trial_rng(config.seed, trial), config)
        drawn = clock()
        draw_s += drawn - last
        score = scores.get(key)
        exp = None
        if score is None:
            exp = _build(key, config, table)
            score = scores[key] = evaluate(exp, target)
            evaluated += 1
            histogram[min(int(score * bins), bins - 1)] += 1
        else:
            cache_hits += 1
        if _accepts(target, score):
            if exp is None:
                exp = _build(key, config, table)
            hits.append(SearchHit(exp, score, trial))
        last = clock()
        score_s += last - drawn
    screened = _screened - screened
    stats = SearchStats(stop - start, len(hits), evaluated, cache_hits, screened, draw_s, score_s, histogram)
    return hits, stats


# The search a pool process serves: its config, element table and score
# cache.  Set by ``_start_worker`` in each process of one ``search``; the
# cache spans that process's blocks and ends with the pool.
_worker: tuple[SearchConfig, dict[int, Element], dict[tuple[int, ...], float]] | None = None


def _start_worker(config: SearchConfig) -> None:
    global _worker
    _worker = (config, {}, {})


def _worker_block(span: tuple[int, int]) -> tuple[list[SearchHit], SearchStats]:
    config, table, scores = _worker
    return _run_block(config, *span, table, scores)


def search_with_stats(config: SearchConfig, *, workers: int = 1) -> tuple[list[SearchHit], SearchStats]:
    """``search``, plus what it did.

    Each distinct key is scored once per process: the serial search keeps
    one score cache, and each pool process keeps one for all its blocks.
    No cache outlives the call.
    """
    start = time.perf_counter()
    if workers <= 1:
        hits, stats = _run_block(config, 0, config.budget, {}, {})
    else:
        block = max(1, math.ceil(config.budget / (workers * 8)))
        spans = [(a, min(a + block, config.budget)) for a in range(0, config.budget, block)]
        with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker, initargs=(config,)) as pool:
            parts = list(pool.map(_worker_block, spans))
        # ``map`` keeps the span order, so the hits stay in trial order.
        hits = [hit for block_hits, _ in parts for hit in block_hits]
        stats = SearchStats(
            trials=sum(s.trials for _, s in parts),
            accepted=sum(s.accepted for _, s in parts),
            evaluated=sum(s.evaluated for _, s in parts),
            cache_hits=sum(s.cache_hits for _, s in parts),
            screened=sum(s.screened for _, s in parts),
            draw_s=sum(s.draw_s for _, s in parts),
            score_s=sum(s.score_s for _, s in parts),
            histogram=[sum(counts) for counts in zip(*(s.histogram for _, s in parts))],
        )
    stats.wall_s = time.perf_counter() - start
    return hits, stats


def search(config: SearchConfig, *, workers: int = 1) -> list[SearchHit]:
    """Evaluate up to ``budget`` samples; hits come back in trial order.

    The per-trial random streams make the result independent of the
    worker count and of scheduling.
    """
    return search_with_stats(config, workers=workers)[0]
