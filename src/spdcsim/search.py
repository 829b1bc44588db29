"""Seeded rejection-sampling search for experiments producing target states.

Each trial draws an element list from a configurable pool, simulates it,
post-selects on the configured detectors, and scores the result against
the acceptance target.  Trial ``t`` draws from its own stream,
``default_rng(SeedSequence((seed, t)))``, so results are identical bit
for bit however trials are spread over workers.  A chunk of trials draws
at once in numpy, numpy's draws one for one (``_Words``, ``_draw_keys``),
without ``numpy.random``.

A trial's draw is a compact key, one small int per element, naming
entries of one element table per span (``_element_table``).  A span of
trials works a chunk at a time (``_run_span``): it draws the chunk's
keys, scores each new distinct key once and each symmetry class of keys
once, then collects the chunk's hits.  A class is the keys that the
admitted label maps, path permutations and the mode mirror ``m -> c -
m``, map onto each other by conjugating each element (``_class_tables``).
A new class is screened on its key first: the modes its elements let
photons reach, folded from the table's reach steps
(``elements.mode_reach``), tell whether it can produce a coincidence at
all (``_can_click``).  A class that cannot scores 0 with nothing
compiled.  One that can is scored on packed keys from its table
elements (``_score``), through one key layout and target per span, over
the pool's reach (``_pool_reach``), compiled on the span's first key
that passes the screen (``_compile``), so every element step and
transfer table is shared by all of the span's setups; an
``Experiment`` is built only for a hit.  ``evaluate`` scores one built
setup through the same two steps, on its own reach's layout.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .analysis import _encode_target, _fidelity, _party_rank
from .dsl import path_name
from .elements import Crystal, Element, ModeShifter, MultimodeCrystal, PhaseShifter, Relabel
from .elements import mode_reach, reach_step, resolve_loss_paths
from .experiment import Experiment, _check_detectors, compile_run, pattern_rule, run_keys
from .fock import KeyLayout, ModeLabel, StateVector, normalized_terms

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

    The other parameter choices are the module constants above.  Every
    path is a name :func:`~spdcsim.dsl.path_name` accepts, so every hit
    can be written as experiment text.
    """

    paths: tuple[str, ...]
    kinds: tuple[str, ...] = ("crystal",)
    crystal_modes: tuple[tuple[int, int], ...] = ((0, 0), (1, 1))

    def __post_init__(self):
        if bad := set(self.kinds) - {"crystal", "multimode", "shift", "phase", "relabel"}:
            raise ValueError(f"unknown element kinds {sorted(bad)}")
        if not self.kinds:
            raise ValueError("need at least one element kind")
        if "crystal" in self.kinds and not self.crystal_modes:
            raise ValueError("kind 'crystal' needs at least one crystal mode pair")
        for pair in self.crystal_modes:
            if not (isinstance(pair, tuple) and len(pair) == 2 and all(isinstance(mode, int) for mode in pair)):
                raise ValueError(f"crystal mode pair {pair!r} is not a pair of ints")
        if len(self.paths) < 2:
            raise ValueError("need at least two paths")
        for path in self.paths:
            path_name(path)
        for name in ("paths", "kinds", "crystal_modes"):
            items = getattr(self, name)
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise ValueError(f"{name}: {item!r} appears twice")


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
        # Each would make every trial score 0 or fail at the first built one.
        _check_detectors(self.detectors)
        detectors, target = set(self.detectors), self.target
        if not detectors <= set(self.pool.paths):
            raise ValueError("detectors must be pool paths")
        if isinstance(target, FidelityTarget) and target.state.paths() != detectors:
            raise ValueError("target state must be on the detectors")
        if isinstance(target, SrvTarget) and not set(target.parties) <= detectors:
            raise ValueError("parties must be detectors")


@dataclass(frozen=True)
class SearchHit:
    experiment: Experiment
    score: float
    trial_index: int


@dataclass
class SearchStats:
    """What one search did; the counts do not depend on the worker count.

    ``evaluated`` counts the distinct setups drawn; every other trial is
    a cache hit.  ``classes`` counts their symmetry classes (under the
    admitted label maps, ``_class_tables``), each screened once and, if
    it passes, scored once on packed keys (plus once per hit outside its
    class's first key).  ``screened`` counts the setups whose class
    the screen scored 0 on its drawn key, unbuilt (``_can_click``).
    ``histogram`` bins the setups' scores (their class's, or their own if
    scored themselves) in tenths for a fidelity target, or as 0 and 1
    for a rank target.  ``draw_s`` is each chunk's seeding and draw,
    ``score_s`` its scoring and hits; both add up the workers' times.
    ``wall_s`` is elapsed.
    """

    trials: int
    accepted: int
    evaluated: int
    classes: int
    screened: int
    draw_s: float
    score_s: float
    histogram: list[int]
    wall_s: float = 0.0

    @property
    def cache_hits(self) -> int:
        """The trials that drew a setup already evaluated."""
        return self.trials - self.evaluated

    def record(self) -> dict:
        """The stats as one JSON-ready mapping."""
        if len(self.histogram) == 10:
            labels = [f"[{k / 10:.1f},{(k + 1) / 10:.1f}{']' if k == 9 else ')'}" for k in range(10)]
        else:
            labels = ["0", "1"]
        names = ("accepted", "evaluated", "classes", "cache_hits", "screened", "draw_s", "score_s")
        return {
            "trials": self.trials,
            "trials_per_s": self.trials / self.wall_s if self.wall_s else 0.0,
            **{name: getattr(self, name) for name in names},
            "score_histogram": dict(zip(labels, self.histogram)),
        }


# ``_seed_words`` replays SeedSequence's entropy coercion, pool mixing and
# ``generate_state(4, np.uint64)`` on uint32 arrays, one row per trial, with
# numpy's constants (``bit_generator.pyx``).  Every value is a uint32 array
# or an ``np.uint32``, so products wrap mod 2**32 as in C.

#: Trials drawn together; bounds the memory of a chunk's arrays.
_CHUNK = 1024
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


# PCG64 as numpy seeds and steps it (``pcg64.h``): a 128-bit LCG, XSL-RR
# output, each 64-bit output two 32-bit draws, low half first.  A 128-bit
# value is a high and a low uint64 array, and every operand ``np.uint64``.
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MULT_1, _MULT_0 = np.uint64(0x4385DF64), np.uint64(0x9FCCF645)
_LOW, _SPAN = np.uint64(_MASK32), np.uint64(1 << 32)
_ZERO, _ONE, _HALF, _ROT, _TOP = (np.uint64(k) for k in (0, 1, 32, 58, 63))
#: Outputs a word table grows by.
_OUTPUTS = 16


class _Words:
    """Trials ``start`` to ``stop``'s 32-bit draws (a ``_seed_words`` span), a row each."""

    def __init__(self, seed: int, start: int, stop: int):
        w0, w1, w2, w3 = _seed_words(seed, start, stop).T
        self.rows = stop - start
        # Row ``r``'s word ``w`` is ``_table[w * rows + r]``; ``_at`` holds
        # each row's next; no row has used over ``_used`` words.
        self._at = np.arange(self.rows)
        self._table = np.empty(0, np.uint64)
        self._used = 0
        # As ``pcg64_set_seed``: state 0, one step, add the seed, one step.
        self._inc_hi, self._inc_lo = w2 << _ONE | w3 >> _TOP, w3 << _ONE | _ONE
        self._lo = self._inc_lo + w1
        self._hi = self._inc_hi + w0 + np.where(self._lo < w1, _ONE, _ZERO)
        self._step()

    def _step(self) -> None:
        hi, lo = self._hi, self._lo
        # ``lo * _MULT_LO``'s high word, from 32-bit halves.
        a1, a0 = lo >> _HALF, lo & _LOW
        mid = a1 * _MULT_0 + (a0 * _MULT_0 >> _HALF)
        carry = (mid & _LOW) + a0 * _MULT_1
        hi = a1 * _MULT_1 + (mid >> _HALF) + (carry >> _HALF) + hi * _MULT_LO + lo * _MULT_HI + self._inc_hi
        self._lo = lo * _MULT_LO + self._inc_lo
        self._hi = hi + np.where(self._lo < self._inc_lo, _ONE, _ZERO)

    def _grow(self) -> None:
        rows, old = self.rows, len(self._table)
        self._table = table = np.concatenate([self._table, np.empty(2 * _OUTPUTS * rows, np.uint64)])
        for at in range(old, len(table), 2 * rows):
            self._step()
            word, rot = self._hi ^ self._lo, self._hi >> _ROT
            word = word >> rot | word << (_TOP - rot) << _ONE  # not << 64 at rot 0
            table[at : at + rows] = word & _LOW
            table[at + rows : at + 2 * rows] = word >> _HALF

    def integers(self, k: np.ndarray) -> np.ndarray:
        """Each row's ``integers(k)`` for its bound in ``k``, uint64s from 1 to 2**32.

        numpy's 32-bit Lemire draw: a row whose low product word is below
        ``(2**32 - k) % k`` (less than ``k``) draws again.  Bound 1 draws
        nothing, as in numpy.
        """
        out = np.zeros(self.rows, np.uint64)
        rows = np.flatnonzero(k > _ONE)
        k = k[rows]
        while len(rows):
            if self._used * self.rows == len(self._table):
                self._grow()
            self._used += 1
            at = self._at[rows]
            self._at[rows] = at + self.rows
            m = self._table[at] * k
            out[rows] = m >> _HALF
            low = m & _LOW
            if not np.count_nonzero(low < k):
                break
            redo = np.flatnonzero(low < (_SPAN - k) % k)
            rows, k = rows[redo], k[redo]
        return out


# A drawn element is one int, an index into the elements the pool can draw:
# five blocks, one per kind, each a mixed-radix number of its parameter
# indices: crystal (pair, mode pair), multimode (pair, mode list), shift
# (path, delta), phase (path, phase) and relabel (source, target).  A pair
# is ``i * n + j`` with ``i < j``, so a crystal's two path orders give one
# index; a relabel keeps its order.


def _blocks(pool: ElementPool) -> tuple[int, int, int, int, int]:
    """The path count, then the first index of the multimode, shift, phase and relabel blocks."""
    n = len(pool.paths)
    multimode = n * n * len(pool.crystal_modes)
    shift = multimode + n * n * len(MULTIMODE_LISTS)
    phase = shift + n * len(SHIFT_DELTAS)
    return n, multimode, shift, phase, phase + n * len(PHASE_VALUES)


def _draw_keys(config: SearchConfig, words: _Words) -> list[tuple[int, ...]]:
    """Each row's candidate as a key: uniform element count, kinds, and parameters.

    An element draws its kind, then four parameters, bound 1 drawing
    nothing; a pair is ``choice(n, 2, replace=False)``: Floyd's two draws,
    then a swap.  Its index is its kind's offset, factors times the
    unordered pair, ordered pair and first draw, and the last draw.
    """
    pool = config.pool
    n, multimode, shift, phase, relabel = _blocks(pool)
    modes, lists, deltas, values = len(pool.crystal_modes), len(MULTIMODE_LISTS), len(SHIFT_DELTAS), len(PHASE_VALUES)
    rules = {
        "crystal": (n - 1, n, 2, modes, 0, modes, 0, 0),
        "multimode": (n - 1, n, 2, lists, multimode, lists, 0, 0),
        "shift": (n, 1, 1, deltas, shift, 0, 0, deltas),
        "phase": (n, 1, 1, values, phase, 0, 0, values),
        "relabel": (n - 1, n, 2, 1, relabel, 0, 1, 0),
    }
    # The last rule, for elements past a row's count, draws nothing.
    table = np.array([rules[kind] for kind in pool.kinds] + [(1,) * 4 + (0,) * 4], np.uint64)
    bounds, factors = table[:, :4], table[:, 4:]
    # Only ``np.uint64`` operands: numpy 1.x makes some mixes float64.
    kinds, n = np.uint64(len(pool.kinds)), np.uint64(n)
    count = _ONE + words.integers(np.full(words.rows, config.max_elements, np.uint64))
    sizes = count.tolist()
    columns = []
    for position in range(max(sizes)):
        live = count > np.uint64(position)
        kind = np.where(live, words.integers(np.where(live, kinds, _ONE)), kinds)
        first, second, swap, last = (words.integers(bounds[kind, k]) for k in range(4))
        other = np.where(second == first, n - _ONE, second)
        forth, back = first * n + other, other * n + first
        pair = np.where(first < other, forth, back)
        terms = np.stack([np.ones_like(first), pair, np.where(swap == _ZERO, back, forth), first], 1)
        columns.append((factors[kind] * terms).sum(1) + last)
    keys = np.stack(columns, 1).tolist()
    return [tuple(key[:size]) for key, size in zip(keys, sizes)]


def _chunks(seed: int, start: int, stop: int) -> Iterator[_Words]:
    """Trials ``start`` to ``stop``'s draws by chunks."""
    while start < stop:
        end = min(stop, start + _CHUNK, (start | _MASK32) + 1)
        yield _Words(seed, start, end)
        start = end


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


def _element_table(pool: ElementPool) -> dict[int, tuple[Element, tuple]]:
    """Each index the draw can give, to its element and ``elements.reach_step``:
    the least index naming each element of a pool kind on distinct paths."""
    table: dict[int, tuple[Element, tuple]] = {}
    seen: set[Element] = set()
    for index in range(_blocks(pool)[-1] + len(pool.paths) ** 2):
        element = _element(index, pool)
        kind, paths = _kind_paths(element)
        if kind in pool.kinds and len(set(paths)) == len(paths) and element not in seen:
            seen.add(element)
            table[index] = (element, reach_step(element))
    return table


def _source_modes(pool: ElementPool) -> list[int]:
    """Every mode the pool's sources name: its crystal mode pairs' and the multimode lists'."""
    modes = list(itertools.chain(*pool.crystal_modes)) if "crystal" in pool.kinds else []
    if "multimode" in pool.kinds:
        modes += itertools.chain(*MULTIMODE_LISTS)
    return modes


def _pool_reach(config: SearchConfig) -> dict[str, range]:
    """Modes that hold every ``elements.mode_reach`` of a setup the search
    draws: on every pool path, the least to the greatest mode the pool's
    sources name, widened on each side by the most that the shifts of one
    setup can move a photon.

    A setup holds a photon only after a source, so at most
    ``max_elements - 1`` shifts move it; relabels move photons only
    between pool paths, and the search draws no misalignment.
    """
    modes = _source_modes(config.pool)
    spread = (config.max_elements - 1) * max(map(abs, SHIFT_DELTAS)) if "shift" in config.pool.kinds else 0
    span = range(min(modes, default=0) - spread, max(modes, default=0) + spread + 1)
    return dict.fromkeys(config.pool.paths, span)


def _build(key: tuple[int, ...], config: SearchConfig, table: dict[int, tuple[Element, tuple]]) -> Experiment:
    """The experiment a key names, its elements shared through the element table."""
    return Experiment(elements=tuple(table[index][0] for index in key), detectors=config.detectors)


def random_setup(config: SearchConfig, trial: int) -> Experiment:
    """The setup that trial ``trial`` of the search ``config`` draws."""
    key = _draw_keys(config, _Words(config.seed, trial, trial + 1))[0]
    return Experiment(elements=tuple(_element(index, config.pool) for index in key), detectors=config.detectors)


def evaluate(exp: Experiment, target: Target) -> float:
    """Simulate, post-select, and score; empty selections score zero.

    A setup whose mode reach (``elements.mode_reach`` of its resolved
    elements) cannot produce a coincidence scores ``0.0`` uncompiled
    (:func:`_can_click`).  Otherwise the reach is compiled into a key
    layout and target (:func:`_compile`) for this one setup, and the
    setup is scored on packed keys (:func:`_score`), as a search scores it.  The score is bit for bit
    ``fidelity`` or ``schmidt_rank_vector`` of ``post_select(run(exp),
    exp.detectors).state``.
    """
    elements = resolve_loss_paths(exp.elements)
    reach = mode_reach(map(reach_step, elements))
    if not _can_click(reach, exp.detectors, target):
        return 0.0
    return _score(_compile(exp, reach, target), elements)


class _Compiled(NamedTuple):
    """What scoring any setup of one key layout needs (:func:`_compile`)."""

    #: the settings: detectors, pair budget, series order, convention
    exp: Experiment
    layout: KeyLayout
    #: ``post_select``'s rule on ``layout`` (``experiment.pattern_rule``)
    passes: Callable[[int], bool]
    target: Target
    #: a fidelity target on ``layout``'s keys (``analysis._encode_target``);
    #: a rank target's party blocks, or None when a party is not a detector
    encoded: dict[int, complex] | tuple[int, ...] | None
    #: each element's compiled step on ``layout``, filled by ``run_keys``
    steps: dict


def _compile(exp: Experiment, reach: Mapping[str, Iterable[int]], target: Target) -> _Compiled:
    """The key layout over ``reach`` for ``exp``'s settings
    (``compile_run``), its n-fold rule (``pattern_rule``), ``target`` on
    its keys (``analysis._encode_target``, as ``fidelity`` encodes it)
    and an empty step memo.

    ``reach`` is a setup's own (``evaluate``) or the pool's, which holds
    every setup a span draws (``_run_span``).  A setup scores the same bit
    for bit on any layout whose reach holds its own: fields run in label
    order on both, and the extra ones stay empty, so every step, the
    n-fold rule and the scorers see the same terms in the same order.

    After the n-fold selection every detector
    holds one photon in every term and every other path none,
    so ``schmidt_rank_vector``'s party-occupancy check fails exactly when
    a rank target's party is not a detector.
    """
    layout = compile_run(exp, reach)[1]
    encoded: dict[int, complex] | tuple[int, ...] | None = None
    if isinstance(target, FidelityTarget):
        encoded = _encode_target(target.state, layout)
    elif set(target.parties) <= set(exp.detectors):
        encoded = tuple(layout.block_bits((party,)) for party in target.parties)
    return _Compiled(exp, layout, pattern_rule(layout, dict.fromkeys(exp.detectors, 1)), target, encoded, {})


def _score(compiled: _Compiled, elements: Sequence[Element]) -> float:
    """The score of the setup of resolved ``elements`` and ``compiled``'s
    settings, from its packed terms (``run_keys``), decoding nothing.

    Each step is that of ``post_select`` and then ``fidelity`` or
    ``schmidt_rank_vector``, through the same helpers: the terms passing
    the n-fold rule, normalized; nothing left scores 0; normalized again;
    then ``analysis._fidelity``, or 1 when every party is a detector
    (:func:`_compile`) and each ``analysis._party_rank`` is its target
    rank, checked party by party, else 0.
    """
    exp, layout, passes, target, encoded, steps = compiled
    selected = normalized_terms({key: amp for key, amp in run_keys(exp, elements, layout, steps).items() if passes(key)})
    if not selected:
        # ``post_select``'s state is zero exactly when nothing passed,
        # which is when its success weight is 0.
        return 0.0
    psi = normalized_terms(selected)
    if isinstance(target, FidelityTarget):
        return _fidelity(encoded, psi)
    if encoded is None:
        return 0.0
    for bits, rank in zip(encoded, target.ranks):
        if _party_rank(psi, bits) != rank:
            return 0.0
    return 1.0


def _can_click(reach: dict[str, set[int]], detectors: Sequence[str], target: Target) -> bool:
    """False only when the score is 0 whatever the amplitudes, read off
    the mode reach of a setup (``elements.mode_reach``).

    A detector path no photon reaches has no block in the key layout and
    holds no photon, so the n-fold selection is empty.  For a rank
    target, a party keeps one photon after selection, so its rank is at
    most its block's field count, the span ``max - min + 1`` of its
    modes: a party no photon reaches, or with a span below its rank,
    cannot match.
    """
    for path in detectors:
        if path not in reach:
            return False
    if isinstance(target, SrvTarget):
        for party, rank in zip(target.parties, target.ranks):
            modes = reach.get(party)
            if modes is None or max(modes) - min(modes) < rank - 1:
                return False
    return True


#: A class score this close to a fidelity threshold has each key scored itself.
_NEAR = 1e-9


def _accepts(target: Target, score: float, slack: float = 0.0) -> bool:
    """Whether ``score`` is a hit; with slack ``_NEAR``, whether a key of a class scoring it may be."""
    if isinstance(target, FidelityTarget):
        return score >= target.threshold - slack
    return score == 1.0


# A label map renames paths (``rename``) and maps modes (``mirror``).  It
# keeps a setup's score when it keeps the detector set and the target: a
# fidelity target's state up to a global phase, or each party's rank.  A
# mode bijection alone is a local unitary on every party, so it keeps any
# rank target.  A label map acts on drawn elements by conjugation
# (``_conjugate``), so the symmetry code reads elements through
# ``_element`` and knows nothing of the index layout.  A key's class is its
# least image under the admitted maps (``_conjugator``, ``_class_tables``).

#: Pools with more paths than this search without symmetry: six paths
#: have 720 permutations to check, eight already 40,320.
_SYMMETRY_PATHS = 6


def _fixes(unit: StateVector, rename: dict[str, str], mirror: Callable[[int], int]) -> bool:
    """Whether the label map maps the unit state ``unit`` to itself up to a global phase."""
    terms = unit.terms
    overlap = 0j
    for occ, amp in terms.items():
        moved = tuple(sorted((ModeLabel(rename[label.path], mirror(label.mode)), count) for label, count in occ))
        overlap += terms.get(moved, 0j).conjugate() * amp
    return abs(overlap) >= 1.0 - 1e-12


def _kind_paths(element: Element) -> tuple[str, tuple[str, ...]]:
    """``element``'s kind, as ``ElementPool.kinds`` names it, and the paths it names."""
    if isinstance(element, Crystal):
        return "crystal", (element.out_a.path, element.out_b.path)
    if isinstance(element, MultimodeCrystal):
        return "multimode", (element.path_a, element.path_b)
    if isinstance(element, ModeShifter):
        return "shift", (element.path,)
    if isinstance(element, PhaseShifter):
        return "phase", (element.path,)
    return "relabel", (element.source, element.target)


def _conjugate(element: Element, rename: dict[str, str], mirror: Callable[[int], int]) -> Element:
    """``element`` under a label map, in the form ``_element`` gives it.

    Paths are renamed and modes mapped; a crystal's paths are sorted by
    name and a multimode crystal's mode list sorted.  A shift by ``d``
    becomes one by ``mirror(d) - mirror(0)``, its conjugate under an affine
    mode map; phases and relabels keep their values.
    """
    if isinstance(element, Crystal):
        a, b = sorted(ModeLabel(rename[label.path], mirror(label.mode)) for label in (element.out_a, element.out_b))
        return Crystal(a, b, g=element.g)
    if isinstance(element, MultimodeCrystal):
        a, b = sorted((rename[element.path_a], rename[element.path_b]))
        return MultimodeCrystal(a, b, modes=tuple(sorted(map(mirror, element.modes))), g=element.g)
    if isinstance(element, ModeShifter):
        return ModeShifter(rename[element.path], mirror(element.delta) - mirror(0))
    if isinstance(element, PhaseShifter):
        return PhaseShifter(rename[element.path], element.phi)
    return Relabel(rename[element.source], rename[element.target])


def _conjugator(
    config: SearchConfig, table: dict[int, tuple[Element, tuple]]
) -> Callable[[dict[str, str], Callable[[int], int]], tuple[int, ...] | None]:
    """A function from a label map to its image table, or None when
    ``config`` does not admit the map: when it changes a path's role
    (detected or not, and its rank as a party), moves a fidelity target's
    state beyond a global phase, or sends a drawable element to an
    undrawable one.

    The image table gives each index of ``table`` (``_element_table``) the
    index of its element's image (``_conjugate``), and each undrawable
    index below them itself.  An image depends on the map only through the
    mode map and the images of the element's own paths, so it is memoised
    on those: pass one function object for one mode map.
    """
    pool, target = config.pool, config.target
    rank = dict(zip(target.parties, target.ranks)) if isinstance(target, SrvTarget) else {}
    role = {path: (path in config.detectors, rank.get(path)) for path in pool.paths}
    unit = target.state.normalized() if isinstance(target, FidelityTarget) else None
    size = max(table) + 1
    index = {element: i for i, (element, _) in table.items()}
    entries = [(element, i, _kind_paths(element)[1]) for i, (element, _) in table.items()]
    images: dict[tuple, int | None] = {}

    def image_table(rename: dict[str, str], mirror: Callable[[int], int]) -> tuple[int, ...] | None:
        if any(role[rename[path]] != value for path, value in role.items()):
            return None
        if unit is not None and not _fixes(unit, rename, mirror):
            return None
        image = list(range(size))
        for element, i, paths in entries:
            key = (mirror, i, *[rename[path] for path in paths])
            if key not in images:
                images[key] = index.get(_conjugate(element, rename, mirror))
            if images[key] is None:
                return None
            image[i] = images[key]
        return tuple(image)

    return image_table


def _class_tables(config: SearchConfig, table: dict[int, tuple[Element, tuple]]) -> list[tuple[int, ...]]:
    """The image tables over the element table ``table`` whose least image
    of a key is its class.

    They are each admitted path permutation's (``_conjugator``), the
    identity first, then each of those followed by the mirror ``m -> c -
    m`` when the mirror alone is admitted, ``c`` the least plus the
    greatest mode the pool's sources name; the mirror commutes with every
    path permutation, so the tables form a group.  Above
    ``_SYMMETRY_PATHS`` paths, only the identity's.
    """
    paths = config.pool.paths
    image_table = _conjugator(config, table)

    def keep(mode: int) -> int:
        return mode

    if len(paths) > _SYMMETRY_PATHS:
        return [image_table(dict(zip(paths, paths)), keep)]
    renames = (dict(zip(paths, image)) for image in itertools.permutations(paths))
    tables = [table for rename in renames if (table := image_table(rename, keep)) is not None]
    modes = _source_modes(config.pool)
    if modes:
        c = min(modes) + max(modes)
        mirrored = image_table(dict(zip(paths, paths)), lambda m: c - m)
        if mirrored is not None:
            tables += [tuple(map(mirrored.__getitem__, table)) for table in tables]
    return tables


def _canonicaliser(tables: list[tuple[int, ...]]):
    """A function from a key to its class: its least image under ``tables``.

    Each element index has a least image and the tables that reach it
    (``tables`` itself when all do); the walk along the key keeps only
    the tables that tie at each position, and maps the rest of the key by
    the last one left.  A key that is its own class is returned as is.
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


def _run_span(config: SearchConfig, start: int, stop: int) -> tuple[list[SearchHit], dict, set, dict, float, float]:
    """Trials ``start`` to ``stop`` a chunk at a time, each symmetry class
    (``_class_tables``) scored once.

    The span builds its element table (``_element_table``) up front and
    maps each class to its first key drawn, whose score is the class's.
    A chunk's new keys are scored in first-drawn order: a new class, or a
    key that may be a hit on its own (``_accepts`` with ``_NEAR``), is
    screened on its key's mode reach, and one that cannot click scores 0
    uncompiled.  One that passes is scored on packed keys (``_score``)
    from its table elements, through the layout and target over the
    pool's reach (``_pool_reach``, ``_compile``), which the span compiles
    on the first key that passes and keeps for its life, so all its keys
    share each element's step and each crystal's transfer table.  Then
    the chunk's trials whose keys are accepted are hits; an experiment is
    built only for a hit.
    Returns the hits, the ``{key: score}`` of its distinct keys, the keys
    whose class the screen rejected, the ``{class: first key}`` map, and
    the seconds of its chunks' seeding and draw and of their scoring.
    """
    target, detectors = config.target, config.detectors
    table = _element_table(config.pool)
    canonical = _canonicaliser(_class_tables(config, table))
    settings = Experiment(detectors=detectors)
    compiled: _Compiled | None = None
    scores: dict[tuple[int, ...], float] = {}
    classes: dict[tuple[int, ...], tuple[int, ...]] = {}
    screened: set[tuple[int, ...]] = set()
    accepted: set[tuple[int, ...]] = set()
    hits = []
    draw_s = score_s = 0.0
    clock = time.perf_counter
    last = clock()
    for words in _chunks(config.seed, start, stop):
        keys = _draw_keys(config, words)
        drawn = clock()
        draw_s += drawn - last
        for key in keys:
            if key in scores:
                continue
            form = canonical(key)
            first = classes.get(form)
            if first is None or _accepts(target, scores[first], _NEAR):
                reach = mode_reach([table[index][1] for index in key])
                if _can_click(reach, detectors, target):
                    if compiled is None:
                        compiled = _compile(settings, _pool_reach(config), target)
                    score = _score(compiled, [table[index][0] for index in key])
                else:
                    score = 0.0
                    screened.add(key)
                if first is None:
                    classes[form] = first = key
            else:
                score = scores[first]
            scores[key] = score
            if first in screened:
                screened.add(key)
            if _accepts(target, score):
                accepted.add(key)
        for trial, key in enumerate(keys, start):
            if key in accepted:
                hits.append(SearchHit(_build(key, config, table), scores[key], trial))
        start += len(keys)
        last = clock()
        score_s += last - drawn
    return hits, scores, screened, classes, draw_s, score_s


def search_with_stats(config: SearchConfig, *, workers: int = 1) -> tuple[list[SearchHit], SearchStats]:
    """``search``, plus what it did.

    The budget is split into ``min(workers, budget)`` contiguous spans,
    run here when there is one and in a process pool otherwise (imported
    only then, so a serial search loads no process machinery).  The stats
    count the union of the spans' scored keys and classes, so they are
    the serial search's for any worker count.  No cache outlives the call.
    """
    start = time.perf_counter()
    n = max(1, min(workers, config.budget))
    bounds = [config.budget * k // n for k in range(n + 1)]
    if n == 1:
        parts = [_run_span(config, 0, config.budget)]
    else:
        from concurrent.futures import ProcessPoolExecutor

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
        screened=len(screened),
        draw_s=sum(draw_s),
        score_s=sum(score_s),
        histogram=histogram,
        wall_s=time.perf_counter() - start,
    )
    return hits, stats


def search(config: SearchConfig, *, workers: int = 1) -> list[SearchHit]:
    """Evaluate ``budget`` samples; hits come back in trial order for any worker count."""
    return search_with_stats(config, workers=workers)[0]
