"""Experiment composition, evaluation, and coincidence post-selection."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Sequence

from .elements import (
    Crystal,
    Element,
    Misalignment,
    ModeShifter,
    MultimodeCrystal,
    PhaseShifter,
    Relabel,
    compile_layout,
    crystal_pairs,
    evolve,
    resolve_loss_paths,
)
from .fock import LOSS_PREFIX, Occupation, StateVector, occupation_photons


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
        if len(set(self.detectors)) != len(self.detectors):
            raise ValueError("detector paths must be distinct")
        for path in self.detectors:
            if path.startswith(LOSS_PREFIX):
                raise ValueError(f"detector on loss path {path!r}")
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
    """Raised in strict mode when an element references an unknown path."""


#: The path-valued fields of each passive element kind.
_PATH_FIELDS = {
    ModeShifter: ("path",),
    PhaseShifter: ("path",),
    Misalignment: ("path",),
    Relabel: ("source", "target"),
}


def validate_paths(exp: Experiment) -> None:
    """Check that passive elements only touch paths that can carry light."""
    known = set(exp.detectors)
    for element in exp.elements:
        if isinstance(element, (Crystal, MultimodeCrystal)):
            known.update(label.path for pair in crystal_pairs(element) for label in pair)
    for element in exp.elements:
        if isinstance(element, (Crystal, MultimodeCrystal)):
            continue
        referenced = {getattr(element, field) for field in _PATH_FIELDS[type(element)]}
        unknown = {p for p in referenced if p not in known and not p.startswith(LOSS_PREFIX)}
        if unknown:
            raise UndeclaredPathError(
                f"element {element!r} references undeclared path(s) {sorted(unknown)}"
            )


def run(exp: Experiment, *, strict: bool = False) -> StateVector:
    """Apply the element list to vacuum, cutting each source's output to
    the pair budget.

    The resolved element list is compiled once into a packed-key layout
    (``elements.compile_layout``) wide enough for ``2 * pair_budget``
    photons plus the ``2 * expansion_order`` a crystal's expansion adds
    on the way; every element then evolves the ``int``-keyed terms
    (``elements.evolve``), pruned after each element, and the keys are
    decoded to canonical occupation tuples once, at the end.

    Every crystal keeps only terms of at most ``2 * pair_budget``
    photons; the cut is made inside the expansion, which never generates
    terms that could only end above it (``elements.expand_crystal``).
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
    if strict:
        validate_paths(exp)
    limit = 2 * exp.pair_budget
    order = exp.expansion_order
    elements = resolve_loss_paths(exp.elements)
    layout = compile_layout(elements, limit + 2 * order)
    terms = {0: 1.0 + 0j}
    for element in elements:
        terms = evolve(terms, element, layout, order=order, creation_only=exp.creation_only, limit=limit)
    decode = layout.decode
    return StateVector({decode(key): amp for key, amp in terms.items()})


def post_select_pattern(
    state: StateVector, pattern: Mapping[str, int]
) -> PostSelectionResult:
    """Keep terms matching an exact per-path photon-count pattern.

    Paths absent from ``pattern`` (loss paths included) must hold zero
    photons.  The selected component is normalized; its squared norm
    before normalization is reported as the success weight.
    """
    selected = {occ: amp for occ, amp in state.terms.items() if _matches(occ, pattern)}
    component = StateVector(selected)
    weight = sum(abs(a) ** 2 for a in selected.values())
    return PostSelectionResult(component.normalized(), weight)


def _matches(occ: Occupation, pattern: Mapping[str, int]) -> bool:
    counts: dict[str, int] = {}
    for label, n in occ:
        counts[label.path] = counts.get(label.path, 0) + n
    return all(counts.get(path, 0) == want for path, want in pattern.items()) and all(
        path in pattern for path in counts
    )


def post_select(state: StateVector, detectors: Sequence[str]) -> PostSelectionResult:
    """n-fold coincidence selection: exactly one photon per detector path.

    Terms with photons in any other path, loss paths included, are
    rejected; a lost photon cannot contribute to the coincidence.
    """
    return post_select_pattern(state, {path: 1 for path in detectors})


def success_fraction(full: StateVector, selected: PostSelectionResult, n: int) -> float:
    """Selected weight over the total n-photon weight of the full state.

    Photons are counted over non-loss paths, so a term that lost a
    photon to misalignment competes in the sector of its surviving
    photon number.
    """
    denom = sum(
        abs(amp) ** 2
        for occ, amp in full.terms.items()
        if occupation_photons(occ, include_loss=False) == n
    )
    if denom == 0.0:
        raise ValueError(f"no {n}-photon component in the supplied state")
    return selected.success_weight / denom


def coincidence_weights(
    weighted: Iterable[tuple[Occupation, Any]], detectors: Sequence[str]
) -> tuple[Any, Any]:
    """``(valid, total)`` weight of weighted terms under the n-fold rule.

    ``total`` sums the weights of the terms holding ``n = len(detectors)``
    photons over non-loss paths, as :func:`success_fraction` counts them;
    ``valid`` those of the terms :func:`post_select` keeps.  Both sums
    run in input order from the integer 0, so integer weights give
    integers.
    """
    n = len(detectors)
    pattern = {path: 1 for path in detectors}
    valid = total = 0
    for occ, weight in weighted:
        if occupation_photons(occ, include_loss=False) != n:
            continue
        total += weight
        if _matches(occ, pattern):
            valid += weight
    return valid, total


def with_uniform_misalignment(exp: Experiment, transmissivity: float) -> Experiment:
    """Copy of ``exp`` with every misalignment set to one transmissivity."""
    elements = tuple(
        replace(e, transmissivity=transmissivity) if isinstance(e, Misalignment) else e
        for e in exp.elements
    )
    return replace(exp, elements=elements)
