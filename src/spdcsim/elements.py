"""Optical elements and the kernels that apply them to packed coefficient dicts.

Photon-pair sources are modeled by the truncated expansion

    U = 1 + g D + (g^2 / 2!) D^2 + ... + (g^order / order!) D^order,

with ``D = a^dag_A a^dag_B - a_A a_B`` for a single-mode crystal and a
mode-summed ``D`` for a multimode crystal.  The lowering part of ``D``
carries the stimulated- and frustrated-emission physics; it can be
switched off to obtain the pure emission expansion whose amplitudes are
exact monomials in the pump couplings.  Every passive element is one
substitution of the raising operators on one path (:func:`substitute`).
Both kernels work on coefficient dicts over packed ``int`` keys, laid
out once per element list by :func:`compile_layout`, over the modes
:func:`mode_reach` finds: :func:`crystal_transfer` for a source and
:func:`substitute` for a passive element.  :func:`apply_element` is the
entry point for one element on a :class:`~spdcsim.fock.StateVector`.
:func:`fold_shifts` moves an element list's mode shifts onto the labels
of the sources before them, so a run makes no shift pass.
"""

from __future__ import annotations

import cmath
import math
import warnings
from copy import copy
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping, Sequence, Union

from .fock import LOSS_PREFIX, PRUNE_EPSILON, KeyLayout, ModeLabel, StateVector, loss_path
from .fock import apply_pair_generator, occupation_photons

#: Couplings above this trip a warning: the perturbative picture degrades.
G_WARN = 0.2
#: Couplings above this are rejected outright.
G_MAX = 0.5


def _check_g(g: float) -> None:
    if not 0.0 < g <= G_MAX:
        raise ValueError(f"pump coupling g={g} outside (0, {G_MAX}]")
    if g > G_WARN:
        warnings.warn(f"pump coupling g={g} > {G_WARN}; expansion accuracy degrades", stacklevel=3)


@dataclass(frozen=True)
class Crystal:
    """Photon-pair source emitting into two fixed (path, mode) labels."""

    out_a: ModeLabel
    out_b: ModeLabel
    g: float = 0.1

    def __post_init__(self):
        _check_g(self.g)


@dataclass(frozen=True)
class MultimodeCrystal:
    """Pair source emitting a mode-correlated superposition into two paths.

    Each listed mode value contributes one ``a^dag_{A,m} a^dag_{B,m}``
    term with unit weight; ``g`` absorbs the per-term strength.
    """

    path_a: str
    path_b: str
    modes: tuple[int, ...]
    g: float = 0.1

    def __post_init__(self):
        _check_g(self.g)
        if not self.modes:
            raise ValueError("mode list must be nonempty")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("mode list has duplicates")


@dataclass(frozen=True)
class ModeShifter:
    """Adds ``delta`` to the internal mode of every photon in ``path``."""

    path: str
    delta: int


@dataclass(frozen=True)
class PhaseShifter:
    """Multiplies each term by ``exp(i * phi * n)``, n = photons in ``path``."""

    path: str
    phi: float

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError(f"phase phi={self.phi} is not finite")


@dataclass(frozen=True)
class Misalignment:
    """Imperfect path overlap as a beam splitter into a fresh loss path.

    Each raising operator on ``path`` is replaced by
    ``T a^dag_path + R a^dag_loss`` with ``R = sqrt(1 - T^2)``, so the
    transform is exactly norm-preserving for any transmissivity.
    """

    path: str
    transmissivity: float
    loss: str | None = None  # None: ``resolve_loss_paths`` names it by position

    def __post_init__(self):
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError(f"transmissivity {self.transmissivity} outside [0, 1]")
        if self.loss is not None and not self.loss.startswith(LOSS_PREFIX):
            raise ValueError(f"loss path must start with {LOSS_PREFIX!r}")

    @property
    def reflectivity(self) -> float:
        return math.sqrt(1.0 - self.transmissivity * self.transmissivity)


@dataclass(frozen=True)
class Relabel:
    """Merges every photon of ``source`` into ``target`` (path identity)."""

    source: str
    target: str


Element = Union[Crystal, MultimodeCrystal, ModeShifter, PhaseShifter, Misalignment, Relabel]


# -- pair sources ---------------------------------------------------------


def crystal_pairs(crystal: Crystal | MultimodeCrystal) -> list[tuple[ModeLabel, ModeLabel]]:
    """The ``(A, B)`` label pairs summed in a source's generator ``D``."""
    if isinstance(crystal, Crystal):
        return [(crystal.out_a, crystal.out_b)]
    return [(ModeLabel(crystal.path_a, m), ModeLabel(crystal.path_b, m)) for m in crystal.modes]


def taylor_weights(g: float, order: int) -> list[float]:
    """The float series coefficients ``g^k / k!`` for ``k = 0..order``."""
    weights = [1.0]
    coeff = 1.0
    for k in range(1, order + 1):
        coeff = coeff * g / k
        weights.append(coeff)
    return weights


def crystal_transfer(
    crystal: Crystal | MultimodeCrystal,
    weights: Sequence[Any],
    layout: KeyLayout,
    *,
    creation_only: bool = False,
    bosonic: bool = True,
    limit: int | None = None,
) -> Callable[[Mapping[int, Any]], dict[int, Any]]:
    """The step that applies ``sum_k weights[k] D^k`` to a coefficient
    dict on ``layout``'s packed keys, unpruned, with everything that does
    not depend on the terms resolved here, once: the crystal's slots,
    local bits and transfer table.

    The series order is ``len(weights) - 1``; the float engine passes
    :func:`taylor_weights`, the exact efficiency integers scaled by a
    common factor.  ``bosonic`` selects the coefficient convention of
    :func:`~spdcsim.fock.apply_pair_generator`.

    ``D`` reads and writes only the crystal's own fields, so the series
    acting on a term depends only on the term's *local* occupation, its
    bits in those fields.  The step's transfer table, keyed by the local
    bits, holds the series of each local occupation, expanded once
    (:func:`_expand_local`), as entries ``(photons, key delta, sum_k
    weights[k] c_k)``, where ``photons`` counts the entry's own local
    photons and ``c_k`` is a coefficient of ``D^k``.  A term then costs
    one lookup and one add per entry, and skips the entries that would
    take it above the limit; a table lists its entries fewest photons
    first and holds none above the limit.

    The table belongs to the step: it fills as calls meet new local
    occupations and lives as long as the step, so one run, one search
    span or one exact-efficiency pass expands each occupation of a
    crystal once, and nothing is kept between them.

    With ``limit``, only terms of at most ``limit`` photons are returned;
    without, the limit is the layout's bound, which no input term of the
    layout can pass.  The result equals the uncut expansion filtered to
    the limit, with the same coefficients.
    """
    fields, mask = layout.fields, layout.mask
    slots = [(fields[a], fields[b]) for a, b in crystal_pairs(crystal)]
    local_bits = 0
    for a, b in slots:
        local_bits |= mask << a | mask << b
    if limit is None:
        limit = layout.bound
    table: dict[int, list[tuple[int, int, Any]]] = {}

    def transfer(terms: Mapping[int, Any]) -> dict[int, Any]:
        out: dict[int, Any] = {}
        get = out.get
        for key, amp in terms.items():
            local = key & local_bits
            entries = table.get(local)
            if entries is None:
                entries = table[local] = _expand_local(local, slots, mask, weights, creation_only, bosonic, limit)
            spare = limit - (key - local) % mask  # the limit less the photons outside the crystal
            for photons, delta, coeff in entries:
                if photons > spare:
                    break
                key_out = key + delta
                out[key_out] = get(key_out, 0) + amp * coeff
        return out

    return transfer


def _expand_local(
    local: int,
    slots: list[tuple[int, int]],
    mask: int,
    weights: Sequence[Any],
    creation_only: bool,
    bosonic: bool,
    limit: int,
) -> list[tuple[int, int, Any]]:
    """The transfer-table entries of one local occupation, fewest
    photons first: ``sum_k weights[k] D^k`` applied to ``local`` alone,
    power by power with :func:`~spdcsim.fock.apply_pair_generator`.

    Each power is cut as a term's would be: ``D`` moves the photon count
    by exactly 2, so before the k-th step a term above ``limit - 2``
    (emission only) or ``limit + 2 (order - k + 1)`` (with lowering) is
    dropped, since none of its descendants can come back to the limit.
    A term holds at least its local photons, so the cut drops nothing
    that a term could keep, and for terms within the limit no power
    holds more than ``limit + 2 order`` photons.
    """
    power = {local: 1}
    sums = {local: weights[0]}
    order = len(weights) - 1
    for k in range(1, order + 1):
        cap = limit - 2 if creation_only else limit + 2 * (order - k + 1)
        power = {key: c for key, c in power.items() if key % mask <= cap}
        power = apply_pair_generator(power, slots, mask, creation_only=creation_only, bosonic=bosonic)
        weight = weights[k]
        for key, c in power.items():
            sums[key] = sums.get(key, 0) + c * weight
    return sorted((key % mask, key - local, c) for key, c in sums.items() if key % mask <= limit)


# -- passive elements -------------------------------------------------------


def _substitution(element: Element) -> tuple[str, int, list[tuple[str, Any]]]:
    """``(path, delta, [(t_j, c_j), ...])`` of the substitution
    ``a^dag_(path, m) -> sum_j c_j a^dag_(t_j, m + delta)`` that a passive
    element makes: one or two targets, none with a zero ``c_j``, and a
    single target off ``path`` only with ``c = 1``."""
    if isinstance(element, ModeShifter):
        return element.path, element.delta, [(element.path, 1)]
    if isinstance(element, PhaseShifter):
        return element.path, 0, [(element.path, cmath.exp(1j * element.phi))]
    if isinstance(element, Relabel):
        return element.source, 0, [(element.target, 1)]
    if isinstance(element, Misalignment):
        if element.loss is None:
            raise ValueError(f"{element!r} has no loss path; name it with resolve_loss_paths")
        split = [(element.path, element.transmissivity), (element.loss, element.reflectivity)]
        return element.path, 0, [(t, c) for t, c in split if c]
    raise TypeError(f"unknown element {element!r}")


# -- mode reach ---------------------------------------------------------------


def reach_step(element: Element) -> tuple:
    """What ``element`` does to the modes photons can reach, as
    :func:`mode_reach` folds it: ``(None, 0, ((path, modes), ...))`` for a
    source, the modes it adds on each of its paths, or ``(path, delta,
    targets)`` for a passive element, its substitution's path, ``delta``
    and target paths (:func:`_substitution`)."""
    if isinstance(element, (Crystal, MultimodeCrystal)):
        added: dict[str, list[int]] = {}
        for pair in crystal_pairs(element):
            for path, mode in pair:
                added.setdefault(path, []).append(mode)
        return None, 0, tuple((path, tuple(modes)) for path, modes in added.items())
    path, delta, targets = _substitution(element)
    return path, delta, tuple(target for target, _ in targets)


def mode_reach(steps: Iterable[tuple], labels: Iterable[ModeLabel] = ()) -> dict[str, set[int]]:
    """Path -> every mode a photon can reach there, in a run of the
    elements whose :func:`reach_step` are ``steps``, started on ``labels``.

    Sources add their labels, and a passive element adds the modes of its
    path, moved by ``delta``, to each of its targets.  A target on another
    path (a relabel or a misalignment, both with ``delta = 0``) then gets
    every mode of its source, so :func:`substitute` can move the source's
    whole block into it.
    """
    modes: dict[str, set[int]] = {}
    for path, mode in labels:
        modes.setdefault(path, set()).add(mode)
    joins = []
    for path, delta, targets in steps:
        if path is None:
            for target, added in targets:
                modes.setdefault(target, set()).update(added)
            continue
        reached = modes.get(path)
        if reached is not None and delta:
            reached = {m + delta for m in reached}
        for target in targets:
            if target != path:
                joins.append((path, target))
            if reached is not None:
                modes.setdefault(target, set()).update(reached)
    grown = True
    while grown:
        grown = False
        for path, target in joins:
            if path in modes and not modes[path] <= modes.setdefault(target, set()):
                modes[target] |= modes[path]
                grown = True
    return modes


def compile_layout(
    elements: Sequence[Element], bound: int, labels: Iterable[ModeLabel] = ()
) -> KeyLayout:
    """The packed-key layout of a run of ``elements`` that starts on
    ``labels`` and holds at most ``bound`` photons per term, over the
    modes :func:`mode_reach` finds."""
    return KeyLayout(mode_reach(map(reach_step, elements), labels), bound)


def substitute(
    terms: Mapping[int, Any], element: Element, layout: KeyLayout, *, bosonic: bool = True
) -> dict[int, Any]:
    """Apply a passive element to a coefficient dict on ``layout``'s
    packed keys, unpruned.

    The element substitutes ``a^dag_(p, m) -> sum_j c_j a^dag_(t_j, m + delta)``
    (:func:`_substitution`); ``bosonic`` selects the coefficient
    convention of :func:`~spdcsim.fock.apply_pair_generator`.  A split of
    ``n`` photons as ``k`` and ``n - k`` carries ``sqrt(C(n, k))``
    (bosonic) or ``C(n, k)`` (monomial), and ``m`` photons landing on
    ``n`` in one mode carry ``sqrt(C(n + m, n))`` (bosonic) or 1.  With
    one target on ``p`` itself (a shift, a phase, a misalignment at
    ``T = 1``) nothing merges: a shift moves ``p``'s block of fields and a
    phase reads the block's digit sum.  Otherwise one merge loop takes
    ``p``'s block out and adds its fields into the targets' blocks, label
    by label in mode order, with one branch per way of sharing
    (:func:`_shares`): one for a single target (a relabel, a
    misalignment at ``T = 0``), ``n + 1`` for ``n`` photons split two ways.
    A term whose single target holds no photon where the block lands
    skips the loop: the block moves in one add, with the loop's result.
    """
    path, delta, targets = _substitution(element)
    if path not in layout.blocks:
        # No term holds a photon in ``path``.  ``0 + amp`` turns a -0.0
        # part into 0.0, as the accumulation does in the merge loop below;
        # the shift/phase branch stores a term with a photon in ``path``
        # as ``out[key] = amp``, keeping a -0.0 part.
        return {key: 0 + amp for key, amp in terms.items()}
    out: dict[int, Any] = {}
    get = out.get
    width, mask = layout.width, layout.mask
    offset, low, _ = layout.blocks[path]
    path_bits = layout.block_bits((path,))
    if len(targets) == 1 and targets[0][0] == path:
        coeff = targets[0][1]
        move = delta * width
        for key, amp in terms.items():
            bits = key & path_bits
            if not bits:
                out[key] = get(key, 0) + amp
                continue
            if coeff != 1:
                amp = amp * coeff ** (bits % mask)
            if move > 0:
                key += (bits << move) - bits
            elif move < 0:
                key += (bits >> -move) - bits
            out[key] = amp
        return out
    # The offset at which each target's fields for ``p``'s block begin.
    bases = []
    for target, _ in targets:
        t_offset, t_low, _ = layout.blocks[target]
        bases.append(t_offset + (low + delta - t_low) * width)
    # One branch per way of sharing each field's photons among the
    # targets, the first field's share varying slowest.
    comb, sqrt = math.comb, math.sqrt
    coeffs = [c for _, c in targets]
    shares: dict[int, list] = {}
    # A single target (its ``c`` is 1) whose fields under ``p``'s block are
    # all empty takes the whole block in one move: the loop would give
    # every field one branch of weight 1 and no bosonic factor.
    base = bases[0]
    landing = path_bits >> offset << base if len(bases) == 1 else 0
    for key, amp in terms.items():
        bits = key & path_bits
        if not bits:
            out[key] = get(key, 0) + amp
            continue
        if landing and not key & landing:
            key += (bits >> offset << base) - bits
            out[key] = get(key, 0) + amp
            continue
        branches = [(key - bits, amp)]
        bits >>= offset
        step = 0
        while bits:
            n = bits & mask
            if n:
                if n not in shares:
                    shares[n] = _shares(n, coeffs, bosonic)
                grown = []
                for start, value in branches:
                    for weight, counts in shares[n]:
                        key = start
                        share = value * weight if weight != 1 else value
                        for base, k in zip(bases, counts):
                            if k:
                                shift = base + step
                                held = key >> shift & mask
                                key += k << shift
                                if held and bosonic:
                                    share = share * sqrt(comb(held + k, k))
                        grown.append((key, share))
                branches = grown
            bits >>= width
            step += width
        for key, value in branches:
            out[key] = get(key, 0) + value
    return out


def _shares(n: int, coeffs: Sequence[Any], bosonic: bool) -> list[tuple[Any, tuple[int, ...]]]:
    """Each way of sharing ``n`` photons among one or two targets, with
    its weight in ``(c_1 a^dag_1 + c_2 a^dag_2)^n``: all ``n`` to the one
    target, weight ``c_1^n``, or ``(k, n - k)``, ``k`` largest first,
    weight ``c_1^k c_2^(n-k)`` times ``C(n, k)`` (monomial) or
    ``sqrt(C(n, k))`` (bosonic)."""
    out = []
    for k in range(n, -1, -1) if len(coeffs) == 2 else (n,):
        weight = math.sqrt(math.comb(n, k)) if bosonic else math.comb(n, k)
        counts = (k, n - k)[: len(coeffs)]
        for c, m in zip(coeffs, counts):
            weight = weight * c ** m
        out.append((weight, counts))
    return out


def apply_element(
    state: StateVector,
    element: Element,
    *,
    order: int = 2,
    creation_only: bool = False,
    limit: int | None = None,
) -> StateVector:
    """Apply one element; ``order`` and ``limit`` apply to a source (its
    series order and photon cap), which prunes once, at the end.

    The state is packed on a key layout of its own labels and the
    element's and evolved; the result keeps its packed keys and decodes
    them on first read, as a run state does.  The input is read through
    its ``terms``, so applying elements one after another decodes every
    intermediate state in full; :func:`~spdcsim.experiment.run` evolves a
    whole element list on one layout instead.  An amplitude that
    overflows, to inf or nan, raises ``ValueError``; a run, from vacuum,
    cannot overflow.
    """
    labels = {label for occ in state.terms for label, _ in occ}
    most = max(map(occupation_photons, state.terms), default=0)
    layout = compile_layout((element,), max(most, limit or 0) + 2 * order, labels)
    terms = {layout.encode(occ): amp for occ, amp in state.terms.items()}
    terms = element_step(element, layout, order=order, creation_only=creation_only, limit=limit)(terms)
    for amp in terms.values():
        if not cmath.isfinite(amp):
            raise ValueError(f"amplitude {amp} is not finite")
    return StateVector._from_keys(terms, layout)


def element_step(
    element: Element, layout: KeyLayout, *, order: int, creation_only: bool, limit: int | None
) -> Callable[[Mapping[int, complex]], dict[int, complex]]:
    """The step that applies one element to packed float amplitudes on
    ``layout``, pruned as :class:`~spdcsim.fock.StateVector` prunes, a
    non-finite amplitude kept for the caller to refuse; a source's Taylor
    weights and transfer step (:func:`crystal_transfer`) are resolved
    here, once."""
    if isinstance(element, (Crystal, MultimodeCrystal)):
        weights = taylor_weights(element.g, order)
        apply = crystal_transfer(element, weights, layout, creation_only=creation_only, limit=limit)
    else:

        def apply(terms: Mapping[int, complex]) -> dict[int, complex]:
            return substitute(terms, element, layout)

    def step(terms: Mapping[int, complex]) -> dict[int, complex]:
        return {key: amp for key, amp in apply(terms).items() if not abs(amp) <= PRUNE_EPSILON}

    return step


def resolve_loss_paths(elements: tuple[Element, ...]) -> tuple[Element, ...]:
    """Assign deterministic loss paths to misalignments lacking one.

    The k-th misalignment in element order gets ``loss#k``, so repeated
    runs and serialized states agree exactly.
    """
    resolved = []
    counter = 0
    for element in elements:
        if isinstance(element, Misalignment):
            if element.loss is None:
                element = replace(element, loss=loss_path(counter))
            counter += 1
        resolved.append(element)
    return tuple(resolved)


def fold_shifts(elements: Sequence[Element]) -> tuple[Element, ...]:
    """``elements`` (loss paths resolved, :func:`resolve_loss_paths`) with
    each mode shift folded into the sources before it: the same state,
    term for term and bit for bit, with no shift pass where the labels
    allow it.

    A shift is a bijection of labels, so it commutes with an element whose
    labels it moves, and it keeps photon counts, term order and
    amplitudes.  The walk runs from the end with each path's pending
    offset: a shift adds to it and is dropped; a crystal moves its labels
    by it; a multimode crystal moves its modes when both its paths have
    one offset; a relabel hands its target's offset to its source, which
    it leaves empty; a phase reads only photon counts.  A multimode
    crystal with two offsets, or a misalignment whose path and loss path
    differ in offset, keeps the shifts of both right after it.  An offset
    left at the front acts on vacuum and is dropped.  A moved source is
    built by :func:`_moved`, so its checks do not run, or warn, again.
    """
    pending: dict[str, int] = {}
    folded: list[Element] = []  # in reverse order

    def emit(*paths: str) -> None:
        for path in reversed(paths):
            delta = pending.pop(path, 0)
            if delta:
                folded.append(ModeShifter(path, delta))

    for element in reversed(elements):
        if isinstance(element, ModeShifter):
            pending[element.path] = pending.get(element.path, 0) + element.delta
            continue
        if isinstance(element, Crystal):
            a, b = element.out_a, element.out_b
            if pending.get(a.path) or pending.get(b.path):
                element = _moved(
                    element,
                    out_a=ModeLabel(a.path, a.mode + pending.get(a.path, 0)),
                    out_b=ModeLabel(b.path, b.mode + pending.get(b.path, 0)),
                )
        elif isinstance(element, MultimodeCrystal):
            delta = pending.get(element.path_a, 0)
            if delta != pending.get(element.path_b, 0):
                emit(element.path_a, element.path_b)
            elif delta:
                element = _moved(element, modes=tuple(m + delta for m in element.modes))
        elif isinstance(element, Relabel):
            pending[element.source] = pending.get(element.target, 0)
        elif isinstance(element, Misalignment) and pending.get(element.path, 0) != pending.get(element.loss, 0):
            emit(element.path, element.loss)
        folded.append(element)
    return tuple(reversed(folded))


def _moved(source: Crystal | MultimodeCrystal, **fields: Any) -> Crystal | MultimodeCrystal:
    """``replace(source, **fields)`` without ``__post_init__``: moved
    labels or modes pass every check the source passed, and a coupling
    above :data:`G_WARN` has warned once already."""
    moved = copy(source)
    for name, value in fields.items():
        object.__setattr__(moved, name, value)
    return moved
