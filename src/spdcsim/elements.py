"""Optical elements as pure transforms on :class:`~spdcsim.fock.StateVector`.

Photon-pair sources are modeled by the truncated expansion

    U = 1 + g D + (g^2 / 2!) D^2 + ... + (g^order / order!) D^order,

with ``D = a^dag_A a^dag_B - a_A a_B`` for a single-mode crystal and a
mode-summed ``D`` for a multimode crystal.  The lowering part of ``D``
carries the stimulated- and frustrated-emission physics; it can be
switched off to obtain the pure emission expansion whose amplitudes are
exact monomials in the pump couplings.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from typing import Any, Mapping, Union

from .fock import LOSS_PREFIX, ModeLabel, Occupation, StateVector, loss_path, make_occupation
from .fock import apply_pair_generator

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
    order: int | None = None  # None: use the experiment-wide expansion order

    def __post_init__(self):
        _check_g(self.g)
        if self.order is not None and self.order < 1:
            raise ValueError("expansion order must be >= 1")


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
    order: int | None = None

    def __post_init__(self):
        _check_g(self.g)
        if not self.modes:
            raise ValueError("mode list must be nonempty")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("mode list has duplicates")
        if self.order is not None and self.order < 1:
            raise ValueError("expansion order must be >= 1")


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


@dataclass(frozen=True)
class Misalignment:
    """Imperfect path overlap as a beam splitter into a fresh loss path.

    Each raising operator on ``path`` is replaced by
    ``T a^dag_path + R a^dag_loss`` with ``R = sqrt(1 - T^2)``, so the
    transform is exactly norm-preserving for any transmissivity.
    """

    path: str
    transmissivity: float
    loss: str | None = None  # assigned by the runner when None

    def __post_init__(self):
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError(f"transmissivity {self.transmissivity} outside [0, 1]")
        if self.loss is not None and not self.loss.startswith(LOSS_PREFIX):
            raise ValueError(f"loss path must start with {LOSS_PREFIX!r}")

    @property
    def reflectivity(self) -> float:
        return math.sqrt(1.0 - self.transmissivity**2)


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


def expand_crystal(
    terms: Mapping[Occupation, Any],
    crystal: Crystal | MultimodeCrystal,
    g: Any,
    *,
    default_order: int = 2,
    creation_only: bool = False,
    bosonic: bool = True,
) -> dict[Occupation, Any]:
    """``sum_k (g^k / k!) D^k`` applied to a coefficient dict, unpruned.

    ``g`` is passed separately so exact callers can use a ``Fraction``;
    ``bosonic`` selects the coefficient convention of
    :func:`~spdcsim.fock.apply_pair_generator`.
    """
    pairs = crystal_pairs(crystal)
    order = crystal.order if crystal.order is not None else default_order
    result = dict(terms)
    power = terms
    coeff = 1
    for k in range(1, order + 1):
        power = apply_pair_generator(power, pairs, creation_only=creation_only, bosonic=bosonic)
        coeff = coeff * g / k
        for occ, amp in power.items():
            result[occ] = result.get(occ, 0) + amp * coeff
    return result


def apply_crystal(
    state: StateVector,
    crystal: Crystal | MultimodeCrystal,
    *,
    default_order: int = 2,
    creation_only: bool = False,
) -> StateVector:
    """Apply a single- or multimode pair source; prunes once, at the end."""
    return StateVector(
        expand_crystal(
            state.terms, crystal, crystal.g, default_order=default_order, creation_only=creation_only
        )
    )


apply_multimode_crystal = apply_crystal


# -- passive elements -------------------------------------------------------


def relabel_terms(
    terms: Mapping[Occupation, Any], element: ModeShifter | Relabel, *, bosonic: bool = True
) -> dict[Occupation, Any]:
    """Move the labels of a mode shift or a path merge on a coefficient dict.

    Merging ``n`` and ``m`` photons in one mode multiplies a bosonic
    amplitude by ``sqrt((n+m)! / (n! m!))``, as if the merged term were
    rebuilt from raising operators; a monomial coefficient is unchanged.
    """
    if isinstance(element, ModeShifter):
        source, delta, target = element.path, element.delta, element.path
    else:
        source, delta, target = element.source, 0, element.target
    out: dict[Occupation, Any] = {}
    for occ, amp in terms.items():
        counts: dict[ModeLabel, int] = {}
        for label, n in occ:
            if label.path == source:
                label = ModeLabel(target, label.mode + delta)
            already = counts.get(label, 0)
            if already and bosonic:
                amp = amp * math.sqrt(math.comb(already + n, n))
            counts[label] = already + n
        key = tuple(sorted(counts.items()))
        out[key] = out.get(key, 0) + amp
    return out


def apply_mode_shift(state: StateVector, shifter: ModeShifter) -> StateVector:
    if shifter.delta == 0:
        return state
    return StateVector(relabel_terms(state.terms, shifter))


def apply_phase_shift(state: StateVector, shifter: PhaseShifter) -> StateVector:
    out: dict[Occupation, complex] = {}
    for occ, amp in state.terms.items():
        n = sum(count for label, count in occ if label.path == shifter.path)
        out[occ] = amp * cmath.exp(1j * shifter.phi * n)
    return StateVector(out)


def apply_misalignment(state: StateVector, mis: Misalignment) -> StateVector:
    """Term-wise binomial split of ``mis.path`` photons into the loss path.

    An occupation ``n`` at ``(path, m)`` becomes
    ``sum_k sqrt(C(n, k)) T^k R^(n-k) |k at path, n-k at loss>``; the
    square-root binomials keep the transform exactly unitary on the
    enlarged mode set.
    """
    loss = mis.loss if mis.loss is not None else _fresh_loss_path(state)
    t = mis.transmissivity
    r = math.sqrt(1.0 - t * t)
    out: dict[Occupation, complex] = {}
    for occ, amp in state.terms.items():
        branches: list[tuple[dict[ModeLabel, int], complex]] = [({}, amp)]
        for label, n in occ:
            if label.path != mis.path:
                for counts, _ in branches:
                    counts[label] = n
                continue
            loss_label = ModeLabel(loss, label.mode)
            grown: list[tuple[dict[ModeLabel, int], complex]] = []
            for counts, value in branches:
                for k in range(n, -1, -1):
                    split = dict(counts)
                    if k:
                        split[label] = k
                    if n - k:
                        split[loss_label] = n - k
                    weight = math.sqrt(math.comb(n, k)) * (t**k) * (r ** (n - k))
                    grown.append((split, value * weight))
            branches = grown
        for counts, value in branches:
            key = make_occupation(counts)
            out[key] = out.get(key, 0j) + value
    return StateVector(out)


def _fresh_loss_path(state: StateVector) -> str:
    used = {p for p in state.paths() if p.startswith(LOSS_PREFIX)}
    k = 0
    while loss_path(k) in used:
        k += 1
    return loss_path(k)


def apply_relabel(state: StateVector, relabel: Relabel) -> StateVector:
    """Merge occupations of the source path into the target path.

    Amplitudes are recomputed as if each merged term were rebuilt from
    raising operators, so two photons landing in one mode pick up the
    correct bosonic enhancement: merging ``n`` and ``m`` photons in the
    same mode multiplies the amplitude by ``sqrt((n+m)! / (n! m!))``.
    """
    if relabel.source == relabel.target:
        return state
    return StateVector(relabel_terms(state.terms, relabel))


def apply_element(
    state: StateVector,
    element: Element,
    *,
    default_order: int = 2,
    creation_only: bool = False,
) -> StateVector:
    """Dispatch one element application."""
    if isinstance(element, (Crystal, MultimodeCrystal)):
        return apply_crystal(state, element, default_order=default_order, creation_only=creation_only)
    if isinstance(element, ModeShifter):
        return apply_mode_shift(state, element)
    if isinstance(element, PhaseShifter):
        return apply_phase_shift(state, element)
    if isinstance(element, Misalignment):
        return apply_misalignment(state, element)
    if isinstance(element, Relabel):
        return apply_relabel(state, element)
    raise TypeError(f"unknown element {element!r}")


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
