"""Experiment composition, evaluation, and coincidence post-selection."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

from .elements import Element, Misalignment, compile_layout, element_step, fold_shifts, reach_step, resolve_loss_paths
from .fock import LOSS_PREFIX, KeyLayout, StateVector, normalized_terms, occupation_photons


@dataclass(frozen=True)
class Experiment:
    """An ordered element list plus detection settings.

    ``max_pairs`` bounds the retained photon number (``2 * max_pairs``)
    and defaults to half the detector count.  ``expansion_order`` is the
    series order of every crystal.
    ``creation_only`` switches every pair source to the pure emission
    expansion, whose amplitudes are exact monomials in the couplings.
    """

    elements: tuple[Element, ...] = ()
    detectors: tuple[str, ...] = ()
    max_pairs: int | None = None
    expansion_order: int = 2
    creation_only: bool = False

    def __post_init__(self):
        _check_detectors(self.detectors)
        if self.expansion_order < 1:
            raise ValueError("expansion_order must be >= 1")
        if self.max_pairs is not None and self.max_pairs < 0:
            raise ValueError("max_pairs must be >= 0")

    @property
    def pair_budget(self) -> int:
        if self.max_pairs is not None:
            return self.max_pairs
        return max(1, math.ceil(len(self.detectors) / 2))


@dataclass(frozen=True)
class PostSelectionResult:
    """Normalized selected component plus its pre-normalization weight."""

    state: StateVector
    success_weight: float


class UndeclaredPathError(ValueError):
    """Raised by :func:`validate_paths` when an element references an unknown path."""


def validate_paths(exp: Experiment) -> None:
    """Check that passive elements only touch paths that can carry light:
    a detector, a source's path or a loss path.  An element's paths are
    those of its ``elements.reach_step`` on the resolved element list
    (``resolve_loss_paths``); the error names the element as given."""
    steps = [reach_step(element) for element in resolve_loss_paths(exp.elements)]
    known = set(exp.detectors)
    for path, _, targets in steps:
        if path is None:
            known.update(target for target, _ in targets)
    for element, (path, _, targets) in zip(exp.elements, steps):
        if path is None:
            continue
        unknown = {p for p in (path, *targets) if p not in known and not p.startswith(LOSS_PREFIX)}
        if unknown:
            raise UndeclaredPathError(
                f"element {element!r} references undeclared path(s) {sorted(unknown)}"
            )


def compile_run(
    exp: Experiment, reach: Mapping[str, Iterable[int]] | None = None
) -> tuple[tuple[Element, ...], KeyLayout]:
    """The compiled element list of ``exp`` and its packed-key layout.

    The list is the resolved one (``resolve_loss_paths``) with its mode
    shifts folded into the sources before them (``elements.fold_shifts``),
    which leaves the state bit for bit as it is and takes the shift
    passes out.  The layout is wide enough for ``2 * pair_budget``
    photons plus the ``2 * expansion_order`` a crystal's expansion adds on
    the way: ``elements.compile_layout``'s of the compiled list, or the
    layout over ``reach`` when the caller has folded a mode reach already
    (``elements.mode_reach``)."""
    elements = fold_shifts(resolve_loss_paths(exp.elements))
    bound = 2 * exp.pair_budget + 2 * exp.expansion_order
    if reach is None:
        return elements, compile_layout(elements, bound)
    return elements, KeyLayout(reach, bound)


def run_keys(exp: Experiment, elements: Sequence[Element], layout: KeyLayout, steps: dict | None = None) -> dict[int, complex]:
    """Evolve vacuum through the compiled ``elements`` (:func:`compile_run`)
    on ``layout``'s packed keys, pruned after each element; :func:`run`
    without the decode.

    Each element's step (``elements.element_step``) is compiled the first
    time it runs and kept in ``steps``, a memo of steps on ``layout`` under
    ``exp``'s settings, so a caller that runs many element lists on one
    layout, as a search span does, compiles each element once.
    """
    limit = 2 * exp.pair_budget
    order, creation_only = exp.expansion_order, exp.creation_only
    steps = {} if steps is None else steps
    terms = {0: 1.0 + 0j}
    for element in elements:
        step = steps.get(element)
        if step is None:
            step = steps[element] = element_step(element, layout, order=order, creation_only=creation_only, limit=limit)
        terms = step(terms)
    return terms


def run(exp: Experiment) -> StateVector:
    """Apply the element list to vacuum, cutting each source's output to
    the pair budget.

    Two steps: :func:`compile_run` compiles the resolved element list
    once, its mode shifts folded into the sources before them
    (``elements.fold_shifts``), and lays out its packed keys, and
    :func:`run_keys` evolves the
    ``int``-keyed terms (``elements.element_step``), pruned after each
    element.  The state returned keeps the keys and their layout, and
    decodes them to canonical occupation tuples the first time its
    ``terms`` are read (:class:`~spdcsim.fock.StateVector`), so
    :func:`post_select`, :func:`success_fraction` and the scores of
    ``analysis`` read the keys and decode nothing.

    Each crystal is expanded through its step's transfer table, keyed by
    the crystal's local bits and kept as long as the step, here one run:
    the series is computed once per local occupation, alone, the first
    time a term holds it, and every term then takes one lookup and one
    add per table entry (``elements.crystal_transfer``).
    Every crystal keeps only terms of at most ``2 * pair_budget``
    photons; the cut is made inside the expansion, which skips the
    entries that would end above it and never expands a local term that
    could only end above it.
    Where it is made changes nothing: the result equals the full
    expansion truncated after each crystal, and that truncation is an
    approximation, not an exact cut.  A dropped term, lowered by a later
    crystal's ``a a`` part, would have re-entered the n-photon sector at
    order ``g^(n/2 + 2)``, so some corrections of that order are kept
    and others lost.  Raising the budget by one pair moves
    ``asym_rank422_triggered.exp`` by ``1 - F = 2.32e-4`` and its
    success weight by +0.96%; the other corpus files with a non-empty
    selection do not move (``tests/test_truncation.py``).  With
    ``creation_only`` nothing is lowered and the cut is exact.
    """
    elements, layout = compile_run(exp)
    return StateVector._from_keys(run_keys(exp, elements, layout), layout)


def sector_rule(layout: KeyLayout, n: int) -> Callable[[int], bool]:
    """Whether a key of ``layout`` holds ``n`` photons outside the loss
    paths, as ``occupation_photons(occ, include_loss=False)`` counts."""
    mask = layout.mask
    kept = ~layout.block_bits(path for path in layout.blocks if path.startswith(LOSS_PREFIX))
    return lambda key: (key & kept) % mask == n


def pattern_rule(layout: KeyLayout, pattern: Mapping[str, int]) -> Callable[[int], bool]:
    """Whether a key of ``layout`` holds ``pattern[path]`` photons in each
    path of ``pattern`` and none elsewhere, loss paths included: its digit
    sum ``key % mask`` is the pattern's total, each count-1 path's block
    is nonzero, and each higher-count path's block has its count as digit
    sum ``(key & block) % mask``.  Those blocks then hold every photon."""
    mask = layout.mask
    total = sum(pattern.values())
    ones = [layout.block_bits((path,)) for path, n in pattern.items() if n == 1]
    counts = [(layout.block_bits((path,)), n) for path, n in pattern.items() if n > 1]
    return lambda key: key % mask == total and all(map(key.__and__, ones)) and all((key & bits) % mask == n for bits, n in counts)


def post_select_pattern(
    state: StateVector, pattern: Mapping[str, int]
) -> PostSelectionResult:
    """Keep terms matching an exact per-path photon-count pattern.

    Paths absent from ``pattern`` (loss paths included) must hold zero
    photons.  The rule is :func:`pattern_rule`, applied to the state's
    packed keys.  The selected component is normalized; its squared norm
    before normalization is reported as the success weight.
    """
    keys, layout = _packed(state)
    passes = pattern_rule(layout, pattern)
    selected = {key: amp for key, amp in keys.items() if passes(key)}
    weight = sum(abs(a) ** 2 for a in selected.values())
    return PostSelectionResult(StateVector._from_keys(normalized_terms(selected), layout), weight)


def _packed(state: StateVector) -> tuple[dict[int, complex], KeyLayout]:
    """``state``'s terms on packed keys, in term order, and their layout:
    a run or post-selected state's own, or its terms encoded on a layout
    over its own labels, as ``elements.apply_element`` packs a state."""
    if state._packed:
        return state._packed
    terms = state.terms
    layout = compile_layout((), max(map(occupation_photons, terms), default=0), (label for occ in terms for label, _ in occ))
    return {layout.encode(occ): amp for occ, amp in terms.items()}, layout


def post_select(state: StateVector, detectors: Sequence[str]) -> PostSelectionResult:
    """n-fold coincidence selection: exactly one photon per detector path.

    Terms with photons in any other path, loss paths included, are
    rejected; a lost photon cannot contribute to the coincidence.  Raises
    ``ValueError`` for repeated detectors, or one on a loss path, and
    otherwise is ``post_select_pattern(state, dict.fromkeys(detectors, 1))``.
    """
    _check_detectors(detectors)
    return post_select_pattern(state, dict.fromkeys(detectors, 1))


def _check_detectors(detectors: Sequence[str]) -> None:
    """Raise ``ValueError`` for repeated detectors or one on a loss path."""
    if len(set(detectors)) != len(detectors):
        raise ValueError("detectors must be distinct")
    for path in detectors:
        if path.startswith(LOSS_PREFIX):
            raise ValueError(f"detector on loss path {path!r}")


def success_fraction(full: StateVector, selected: PostSelectionResult, n: int) -> float:
    """Selected weight over the total n-photon weight of the full state.

    Photons are counted over non-loss paths, so a term that lost a
    photon to misalignment competes in the sector of its surviving
    photon number.  The terms are counted on the full state's packed
    keys by :func:`sector_rule`, decoding none.
    """
    keys, layout = _packed(full)
    in_sector = sector_rule(layout, n)
    denom = sum(abs(amp) ** 2 for key, amp in keys.items() if in_sector(key))
    if denom == 0.0:
        raise ValueError(f"no {n}-photon component in the experiment output")
    return selected.success_weight / denom


def with_uniform_misalignment(exp: Experiment, transmissivity: float) -> Experiment:
    """Copy of ``exp`` with every misalignment set to one transmissivity."""
    elements = tuple(
        replace(e, transmissivity=transmissivity) if isinstance(e, Misalignment) else e
        for e in exp.elements
    )
    return replace(exp, elements=elements)
