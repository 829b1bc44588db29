"""Seeded rejection-sampling search for experiments producing target states.

Each trial draws an element list from a configurable pool, simulates it,
post-selects on the configured detectors, and scores the result against
the acceptance target.  Trial ``t`` draws from its own stream,
``default_rng(SeedSequence((seed, t)))``, so results are identical bit
for bit no matter how trials are distributed over workers.  A span of
trials computes its streams' PCG64 seed words in one numpy pass
(``_trial_rngs``) instead of building a ``SeedSequence`` per trial, and
each trial draws from a pure-Python PCG64 (``TrialRng``) that makes
numpy's ``Generator`` draws one for one; the search never imports
``numpy.random``.

A setup whose compiled key layout shows that it cannot produce a
coincidence scores 0 without being simulated (``evaluate``).

A trial's draw is a compact key, one small int per element, and equal
setups draw equal keys.  Each contiguous span of trials caches scores
by key, so later trials with a key reuse its score and build no
``Experiment`` unless they are hits, and by symmetry class, so each
class is simulated once, for the first key drawn in it.  Path
permutations that keep the target, the detector set and the pool
(``_symmetries``, ``_image_tables``) give a setup and its permuted copy
the same score; a key's class is its least permuted key
(``_canonicaliser``).  A key whose class score is accepted or lies
within ``_NEAR`` of the threshold is scored itself, so hits and their
scores are those of their own keys.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

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
        if len(set(self.parties)) != len(self.parties):
            raise ValueError("parties must be distinct")
        if any(rank < 1 for rank in self.ranks):
            raise ValueError("ranks must be >= 1")


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
        if not self.kinds:
            raise ValueError("need at least one element kind")
        if "crystal" in self.kinds and not self.crystal_modes:
            raise ValueError("kind 'crystal' needs at least one crystal mode pair")
        if len(self.paths) < 2:
            raise ValueError("need at least two paths")
        if len(set(self.paths)) != len(self.paths):
            raise ValueError("paths has duplicates")


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class SearchHit:
    experiment: Experiment
    score: float
    trial_index: int


@dataclass
class SearchStats:
    """What one search did; the counts do not depend on the worker count.

    ``evaluated`` counts the distinct setups drawn; every other trial is
    a cache hit.  ``classes`` counts the symmetry classes among them, one
    ``evaluate`` call each (plus one per hit outside its class's first
    key).  ``screened`` counts the distinct setups whose class
    ``evaluate`` scored 0 from the key layout alone, without simulating.
    ``histogram`` counts the distinct setups' scores, their class's or,
    for keys scored themselves, their own, screened ones included, in
    ten equal bins on [0, 1] for a fidelity target, or scores 0 and 1 for
    a rank target.
    ``draw_s`` and ``score_s`` add up the workers' times, including
    classes that more than one span scored; ``wall_s`` is the search's
    elapsed time.
    """

    trials: int
    accepted: int
    evaluated: int
    classes: int
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
            "classes": self.classes,
            "cache_hits": self.cache_hits,
            "screened": self.screened,
            "draw_s": self.draw_s,
            "score_s": self.score_s,
            "score_histogram": dict(zip(labels, self.histogram)),
        }


# Trial ``t`` of a search draws from ``default_rng(SeedSequence((seed, t)))``.
# ``_trial_rngs`` builds those streams without a SeedSequence each: it
# replays SeedSequence's entropy coercion, pool mixing and
# ``generate_state(4, np.uint64)`` on uint32 arrays, one row per trial, and
# hands each row to ``TrialRng``, which does PCG64's 128-bit seeding.  The
# constants are numpy's (``numpy/random/bit_generator.pyx``); every value is
# a uint32 array or an ``np.uint32``, so products wrap mod 2**32 as in C.

#: Trials whose seed words one numpy pass computes; bounds the pass's memory.
_SEED_CHUNK = 256
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# The other pool words, in order, that pool word ``src`` is mixed into.
_OTHERS = tuple([dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE))


@functools.cache
def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """``init * mult**k`` mod 2**32 for ``k < n``, as a read-only ``(n, 1)`` column."""
    column = np.array([[init * pow(mult, k, 1 << 32) & _MASK32] for k in range(n)], dtype=np.uint32)
    column.flags.writeable = False
    return column


# ``generate_state(4, np.uint64)`` hashes the pool words in turn, twice round.
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _uint32_words(n: int) -> list[int]:
    """``n`` as SeedSequence takes it: little-endian 32-bit words, at least one."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """Row ``t - start`` is ``SeedSequence((seed, t)).generate_state(4, np.uint64)``.

    The trials must not straddle a multiple of 2**32, so that they share
    every entropy word but the lowest word of ``t``.
    """
    seed_part = _uint32_words(seed)
    words = np.array(seed_part + _uint32_words(start), dtype=np.uint32)
    entropy = np.repeat(words[:, None], stop - start, axis=1)
    entropy[len(seed_part)] += np.arange(stop - start, dtype=np.uint32)
    # The k-th hash of the pool mixing xors with constant k and multiplies
    # by constant k + 1: the first pool fill, the all-pairs mix, then one
    # pass over the pool per entropy word beyond it.
    extra = max(0, len(entropy) - _POOL_SIZE)
    constants = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra) + 1)
    xor, mul = constants[:-1], constants[1:]
    pool = np.zeros((_POOL_SIZE, stop - start), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, xor[:_POOL_SIZE], mul[:_POOL_SIZE])
    k = _POOL_SIZE
    # Word ``src`` is hashed into the other three in turn and does not
    # change meanwhile, so its three hashes are one array operation.
    for src, dst in enumerate(_OTHERS):
        hashed = _hashmix(pool[src], xor[k : k + len(dst)], mul[k : k + len(dst)])
        pool[dst] = _mix(pool[dst], hashed)
        k += len(dst)
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, xor[k : k + _POOL_SIZE], mul[k : k + _POOL_SIZE]))
        k += _POOL_SIZE
    state = _hashmix(np.concatenate([pool, pool]), _STATE_CONSTANTS[:-1], _STATE_CONSTANTS[1:])
    # Word pairs, low word first, make the uint64 words, as in numpy.
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


# Trial ``t``'s PCG64, as numpy seeds and steps it
# (``numpy/random/src/pcg64/pcg64.h``): a 128-bit LCG with numpy's
# multiplier, XSL-RR output, and each 64-bit output split into two 32-bit
# draws, low half first.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


class TrialRng:
    """One trial's draws, those of ``default_rng(SeedSequence((seed, t)))``.

    ``index(k)`` is ``integers(k)`` and ``two_of(n)`` is
    ``choice(n, 2, replace=False)``, draw for draw, so the stream never
    needs ``numpy.random``.
    """

    __slots__ = ("_state", "_inc", "_spare")

    def __init__(self, w0: int, w1: int, w2: int, w3: int):
        """Seed from ``SeedSequence.generate_state(4, np.uint64)``'s words.

        As numpy's ``pcg64_set_seed``: state 0, one step, add the seed,
        one more step.
        """
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self._inc = inc
        self._state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
        self._spare = None  # numpy's ``uinteger`` while ``has_uint32`` is set

    def _next32(self) -> int:
        spare = self._spare
        if spare is not None:
            self._spare = None
            return spare
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word, rot = (state >> 64) ^ (state & _MASK64), state >> 122
        word = (word >> rot | word << (64 - rot)) & _MASK64
        self._spare = word >> 32
        return word & _MASK32

    def index(self, k: int) -> int:
        """``integers(k)`` for ``1 <= k <= 2**32``: numpy's 32-bit Lemire draw.

        ``k == 1`` draws nothing, as in numpy.
        """
        if k == 1:
            return 0
        m = self._next32() * k
        if m & _MASK32 < k:
            threshold = ((1 << 32) - k) % k
            while m & _MASK32 < threshold:
                m = self._next32() * k
        return m >> 32

    def two_of(self, n: int) -> tuple[int, int]:
        """``choice(n, 2, replace=False)``: Floyd's two draws, then one shuffle swap."""
        first = self.index(n - 1)
        second = self.index(n)
        if second == first:
            second = n - 1
        return (second, first) if self.index(2) == 0 else (first, second)


def _trial_rngs(seed: int, start: int, stop: int) -> Iterator[TrialRng]:
    """Trials ``start`` to ``stop``'s streams, seed words computed a chunk at a time."""
    while start < stop:
        end = min(stop, start + _SEED_CHUNK, (start | _MASK32) + 1)
        for words in _seed_words(seed, start, end).tolist():
            yield TrialRng(*words)
        start = end


def _trial_rng(seed: int, trial: int) -> TrialRng:
    """Trial ``trial``'s stream: ``default_rng(SeedSequence((seed, trial)))``."""
    return next(_trial_rngs(seed, trial, trial + 1))


# A drawn element is one int, an index into the elements the pool can draw.
# The index runs over five blocks, one per kind, each a mixed-radix number
# of the draw's parameter indices: crystal (pair, mode pair), multimode
# (pair, mode list), shift (path, delta), phase (path, phase) and relabel
# (source, target).  A pair is ``i * n + j`` over the path indices with
# ``i < j``, so the two orders of a crystal's paths give one index; a
# relabel keeps its order.


def _blocks(pool: ElementPool) -> tuple[int, int, int, int, int]:
    """The path count, then the first index of the multimode, shift, phase and relabel blocks."""
    n = len(pool.paths)
    multimode = n * n * len(pool.crystal_modes)
    shift = multimode + n * n * len(MULTIMODE_LISTS)
    phase = shift + n * len(SHIFT_DELTAS)
    return n, multimode, shift, phase, phase + n * len(PHASE_VALUES)


def _unordered_pair(rng: TrialRng, n: int) -> int:
    i, j = rng.two_of(n)
    return i * n + j if i < j else j * n + i


def _draw(rng: TrialRng, config: SearchConfig, blocks: tuple[int, ...]) -> tuple[int, ...]:
    """One candidate as a key: uniform element count, kinds, and parameters.

    ``blocks`` is ``_blocks(config.pool)``, computed once per search.
    """
    pool = config.pool
    kinds = pool.kinds
    n, multimode, shift, phase, relabel = blocks
    modes = len(pool.crystal_modes)
    index = rng.index
    key = []
    for _ in range(1 + index(config.max_elements)):
        kind = kinds[index(len(kinds))]
        if kind == "crystal":
            key.append(_unordered_pair(rng, n) * modes + index(modes))
        elif kind == "multimode":
            lists = len(MULTIMODE_LISTS)
            key.append(multimode + _unordered_pair(rng, n) * lists + index(lists))
        elif kind == "shift":
            deltas = len(SHIFT_DELTAS)
            key.append(shift + index(n) * deltas + index(deltas))
        elif kind == "phase":
            phases = len(PHASE_VALUES)
            key.append(phase + index(n) * phases + index(phases))
        else:  # relabel
            source, target = rng.two_of(n)
            key.append(relabel + source * n + target)
    return tuple(key)


def _element(index: int, pool: ElementPool) -> Element:
    """The element a drawn index names; crystal paths sorted by name."""
    paths = pool.paths
    n, multimode, shift, phase, relabel = _blocks(pool)
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


def random_setup(config: SearchConfig, trial: int) -> Experiment:
    """The setup that trial ``trial`` of the search ``config`` draws.

    A uniform element count, then each element's kind and parameters.
    """
    return _build(_draw(_trial_rng(config.seed, trial), config, _blocks(config.pool)), config, {})


# Setups this process's ``evaluate`` has screened out; ``_run_span``
# marks a key screened when its score call raised the count.
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


#: A class score this close to a fidelity threshold has each key scored itself.
_NEAR = 1e-9


def _close(target: Target, score: float) -> bool:
    """Whether a key whose class scores ``score`` might be a hit on its own."""
    if isinstance(target, FidelityTarget):
        return score >= target.threshold - _NEAR
    return score == 1.0


# A path permutation ``perm`` sends pool path ``i`` to ``perm[i]``.  It
# maps a setup to one with the same score when it keeps the detector set,
# and the target: a fidelity target's state up to a global phase, or each
# party's rank.  ``_image_tables`` then drops those that would turn an
# element the pool draws into one it cannot draw.

#: Pools with more paths than this search without symmetry: six paths
#: have 720 permutations to check, eight already 40,320.
_SYMMETRY_PATHS = 6


def _symmetries(config: SearchConfig) -> list[tuple[int, ...]]:
    """The path permutations that keep the detectors and the target, identity first."""
    paths = config.pool.paths
    n = len(paths)
    identity = tuple(range(n))
    if n > _SYMMETRY_PATHS:
        return [identity]
    target = config.target
    rank = dict(zip(target.parties, target.ranks)) if isinstance(target, SrvTarget) else {}
    groups: dict[tuple, list[int]] = {}
    for i, path in enumerate(paths):
        groups.setdefault((path in config.detectors, rank.get(path)), []).append(i)
    blocks = list(groups.values())
    perms = []
    for images in itertools.product(*map(itertools.permutations, blocks)):
        perm = [0] * n
        for block, image in zip(blocks, images):
            for i, j in zip(block, image):
                perm[i] = j
        perms.append(tuple(perm))
    if isinstance(target, FidelityTarget):
        unit = target.state.normalized()
        perms = [identity] + [perm for perm in perms[1:] if _fixes(unit, dict(zip(paths, (paths[j] for j in perm))))]
    return perms


def _fixes(unit: StateVector, rename: dict[str, str]) -> bool:
    """Whether renaming paths maps the unit state ``unit`` to itself up to a global phase."""
    terms = unit.terms
    overlap = 0j
    for occ, amp in terms.items():
        moved = tuple(sorted((ModeLabel(rename.get(label.path, label.path), label.mode), count) for label, count in occ))
        overlap += terms.get(moved, 0j).conjugate() * amp
    return abs(overlap) >= 1.0 - 1e-12


def _image_tables(pool: ElementPool, perms: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Each permutation's image of every element index, by index arithmetic.

    ``_element`` gives a crystal's mode pair to its paths in name order,
    so the mode pair swaps when a permutation changes the name order of
    the two paths.  A permutation that would need a swapped pair the
    pool cannot draw is dropped, unless the pool draws no crystals.
    """
    paths = pool.paths
    n, multimode, shift, phase, relabel = _blocks(pool)
    modes, lists = len(pool.crystal_modes), len(MULTIMODE_LISTS)
    deltas, values = len(SHIFT_DELTAS), len(PHASE_VALUES)
    mode_index = {pair: m for m, pair in enumerate(pool.crystal_modes)}
    swapped = [mode_index.get((b, a)) for a, b in pool.crystal_modes]
    crystal = "crystal" in pool.kinds
    tables = []
    for perm in perms:
        image = list(range(relabel + n * n))
        for i, j in itertools.combinations(range(n), 2):
            a, b = perm[i], perm[j]
            pair = a * n + b if a < b else b * n + a
            if crystal:
                flip = (paths[i] < paths[j]) != (paths[a] < paths[b])
                if flip and None in swapped:
                    break
                for m in range(modes):
                    image[(i * n + j) * modes + m] = pair * modes + (swapped[m] if flip else m)
            for m in range(lists):
                image[multimode + (i * n + j) * lists + m] = multimode + pair * lists + m
        else:
            for i, j in enumerate(perm):
                for m in range(deltas):
                    image[shift + i * deltas + m] = shift + j * deltas + m
                for m in range(values):
                    image[phase + i * values + m] = phase + j * values + m
                for k in range(n):
                    image[relabel + i * n + k] = relabel + j * n + perm[k]
            tables.append(tuple(image))
    return tables


def _canonicaliser(tables: list[tuple[int, ...]]):
    """A function from a key to its class: its least image under ``tables``.

    It does not take the least of all images.  Each element index has a
    least image and the tables that reach it (``tables`` itself when all
    do); the walk along the key keeps only the tables that tie at each
    position, and maps the rest of the key by the last one left.  A key
    that is its own class is returned as it is.
    """
    if len(tables) == 1:
        return tuple
    low = [min(images) for images in zip(*tables)]
    reach = []
    for index, least in enumerate(low):
        tied = [table for table in tables if table[index] == least]
        reach.append(tables if len(tied) == len(tables) else tied)

    def canonical(key: tuple[int, ...]) -> tuple[int, ...]:
        live = tables
        form = []
        for pos, index in enumerate(key):
            if live is tables:
                form.append(low[index])
                live = reach[index]
            elif len(live) == 1:
                table = live[0]
                form.extend([table[index] for index in key[pos:]])
                break
            else:
                least = min([table[index] for table in live])
                live = [table for table in live if table[index] == least]
                form.append(least)
        form = tuple(form)
        return key if form == key else form

    return canonical


def _run_span(
    config: SearchConfig, start: int, stop: int
) -> tuple[
    list[SearchHit],
    dict[tuple[int, ...], float],
    set[tuple[int, ...]],
    dict[tuple[int, ...], tuple[int, ...]],
    float,
    float,
]:
    """Trials ``start`` to ``stop``, each symmetry class scored once.

    The span keeps its own element table and score cache, and maps each
    class to the first key drawn in it, whose score is the class's.  An
    experiment is built only to score a new class, a key that may be a
    hit on its own (``_close``), or to report a hit.  Returns the hits,
    the ``{key: score}`` of its distinct keys, the keys whose class the
    screen rejected, the ``{class: first key}`` map, and its draw and
    score seconds.
    """
    target = config.target
    blocks = _blocks(config.pool)
    canonical = _canonicaliser(_image_tables(config.pool, _symmetries(config)))
    table: dict[int, Element] = {}
    scores: dict[tuple[int, ...], float] = {}
    classes: dict[tuple[int, ...], tuple[int, ...]] = {}
    screened: set[tuple[int, ...]] = set()
    hits = []
    draw_s = score_s = 0.0
    clock = time.perf_counter
    last = clock()
    for trial, rng in zip(range(start, stop), _trial_rngs(config.seed, start, stop)):
        key = _draw(rng, config, blocks)
        drawn = clock()
        draw_s += drawn - last
        score = scores.get(key)
        exp = None
        if score is None:
            form = canonical(key)
            first = classes.get(form)
            if first is None or _close(target, scores[first]):
                exp = _build(key, config, table)
                before = _screened
                score = evaluate(exp, target)
                if first is None:
                    classes[form] = first = key
                    if _screened != before:
                        screened.add(key)
            else:
                score = scores[first]
            scores[key] = score
            if first in screened:
                screened.add(key)
        if _accepts(target, score):
            if exp is None:
                exp = _build(key, config, table)
            hits.append(SearchHit(exp, score, trial))
        last = clock()
        score_s += last - drawn
    return hits, scores, screened, classes, draw_s, score_s


def search_with_stats(config: SearchConfig, *, workers: int = 1) -> tuple[list[SearchHit], SearchStats]:
    """``search``, plus what it did.

    The budget is split into ``min(workers, budget)`` contiguous spans,
    run in this process when there is one and in a process pool
    otherwise.  The stats count the union of the spans' scored keys and
    classes, so they are the serial search's for any worker count.  No
    cache outlives the call.
    """
    start = time.perf_counter()
    n = max(1, min(workers, config.budget))
    bounds = [config.budget * k // n for k in range(n + 1)]
    if n == 1:
        parts = [_run_span(config, 0, config.budget)]
    else:
        with ProcessPoolExecutor(max_workers=n) as pool:
            # ``map`` keeps the span order, so the hits stay in trial order.
            parts = list(pool.map(_run_span, [config] * n, bounds[:-1], bounds[1:]))
    span_hits, span_scores, span_screened, span_classes, draw_s, score_s = zip(*parts)
    hits = [hit for part in span_hits for hit in part]
    # The first span's maps take in the others', so a serial search copies none.
    scores, screened, classes = span_scores[0], span_screened[0], span_classes[0]
    for more_scores, more_screened, more_classes in zip(span_scores[1:], span_screened[1:], span_classes[1:]):
        scores.update(more_scores)
        screened |= more_screened
        classes.update(more_classes)
    bins = 10 if isinstance(config.target, FidelityTarget) else 2
    histogram = [0] * bins
    for score in scores.values():
        histogram[min(int(score * bins), bins - 1)] += 1
    stats = SearchStats(
        trials=config.budget,
        accepted=len(hits),
        evaluated=len(scores),
        classes=len(classes),
        cache_hits=config.budget - len(scores),
        screened=len(screened),
        draw_s=sum(draw_s),
        score_s=sum(score_s),
        histogram=histogram,
        wall_s=time.perf_counter() - start,
    )
    return hits, stats


def search(config: SearchConfig, *, workers: int = 1) -> list[SearchHit]:
    """Evaluate up to ``budget`` samples; hits come back in trial order.

    The per-trial random streams make the result independent of the
    worker count and of scheduling.
    """
    return search_with_stats(config, workers=workers)[0]
