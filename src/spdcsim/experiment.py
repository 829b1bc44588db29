"""Experiment composition, evaluation, and coincidence post-selection."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .elements import (
    Crystal,
    Element,
    Misalignment,
    MultimodeCrystal,
    apply_element,
    crystal_pairs,
    resolve_loss_paths,
)
from .fock import LOSS_PREFIX, StateVector, occupation_photons, vacuum


@dataclass(frozen=True)
class Experiment:
    """An ordered element list plus detection settings.

    ``max_pairs`` bounds the retained photon number (``2 * max_pairs``)
    and defaults to half the detector count.  ``expansion_order`` is the
    per-crystal series order used when a crystal does not fix its own.
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


def validate_paths(exp: Experiment) -> None:
    """Check that passive elements only touch paths that can carry light."""
    known = set(exp.detectors)
    for element in exp.elements:
        if isinstance(element, (Crystal, MultimodeCrystal)):
            known.update(label.path for pair in crystal_pairs(element) for label in pair)
    for element in exp.elements:
        referenced: set[str] = set()
        if isinstance(element, (Crystal, MultimodeCrystal)):
            continue
        if hasattr(element, "path"):
            referenced.add(element.path)
        else:
            referenced.update({element.source, element.target})
        unknown = {p for p in referenced if p not in known and not p.startswith(LOSS_PREFIX)}
        if unknown:
            raise UndeclaredPathError(
                f"element {element!r} references undeclared path(s) {sorted(unknown)}"
            )


def run(exp: Experiment, *, strict: bool = False) -> StateVector:
    """Apply the element list to vacuum, truncating after each source.

    Terms holding more than ``2 * pair_budget`` photons are dropped after
    every crystal.  This is an approximation, not an exact cut: a
    dropped term, lowered by a later crystal's ``a a`` part, would have
    re-entered the n-photon sector at order ``g^(n/2 + 2)``, so some
    corrections of that order are kept and others lost.  Raising the
    budget by one pair moves ``asym_rank422_triggered.exp`` by
    ``1 - F = 2.32e-4`` and its success weight by +0.96%; the other
    corpus files with a non-empty selection do not move
    (``tests/test_truncation.py``).  With ``creation_only`` nothing is
    lowered and the cut is exact.
    """
    if strict:
        validate_paths(exp)
    budget = exp.pair_budget
    state = vacuum()
    for element in resolve_loss_paths(exp.elements):
        state = apply_element(
            state,
            element,
            default_order=exp.expansion_order,
            creation_only=exp.creation_only,
        )
        if isinstance(element, (Crystal, MultimodeCrystal)):
            state = state.truncate_pairs(budget)
    return state


def post_select_pattern(
    state: StateVector, pattern: Mapping[str, int]
) -> PostSelectionResult:
    """Keep terms matching an exact per-path photon-count pattern.

    Paths absent from ``pattern`` (loss paths included) must hold zero
    photons.  The selected component is normalized; its squared norm
    before normalization is reported as the success weight.
    """
    selected: dict = {}
    for occ, amp in state.terms.items():
        counts: dict[str, int] = {}
        for label, n in occ:
            counts[label.path] = counts.get(label.path, 0) + n
        if all(counts.get(path, 0) == want for path, want in pattern.items()) and all(
            path in pattern for path in counts
        ):
            selected[occ] = amp
    component = StateVector(selected)
    weight = sum(abs(a) ** 2 for a in selected.values())
    return PostSelectionResult(component.normalized(), weight)


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


def with_uniform_misalignment(exp: Experiment, transmissivity: float) -> Experiment:
    """Copy of ``exp`` with every misalignment set to one transmissivity."""
    elements = tuple(
        replace(e, transmissivity=transmissivity) if isinstance(e, Misalignment) else e
        for e in exp.elements
    )
    return replace(exp, elements=elements)
