"""Optical elements as pure transforms on :class:`~spdcsim.fock.StateVector`.

Photon-pair sources are modeled by the truncated expansion

    U = 1 + g D + (g^2 / 2!) D^2 + ... + (g^order / order!) D^order,

with ``D = a^dag_A a^dag_B - a_A a_B`` for a single-mode crystal and a
mode-summed ``D`` for a multimode crystal.  The lowering part of ``D``
carries the stimulated- and frustrated-emission physics; it can be
switched off to obtain the pure emission expansion whose amplitudes are
exact monomials in the pump couplings.  Every passive element is one
substitution of the raising operators on one path (:func:`substitute`).
"""

from __future__ import annotations

import cmath
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import product
from typing import Any, Mapping, Sequence, Union

from .fock import LOSS_PREFIX, ModeLabel, Occupation, StateVector, loss_path
from .fock import apply_pair_generator, occupation_photons, raise_occupation

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


def expand_crystal(
    terms: Mapping[Occupation, Any],
    crystal: Crystal | MultimodeCrystal,
    weights: Sequence[Any],
    *,
    creation_only: bool = False,
    bosonic: bool = True,
    limit: int | None = None,
) -> dict[Occupation, Any]:
    """``sum_k weights[k] D^k`` applied to a coefficient dict, unpruned.

    The series order is ``len(weights) - 1``; the float engine passes
    :func:`taylor_weights`, the exact efficiency integers scaled by a
    common factor.  ``bosonic`` selects the coefficient convention of
    :func:`~spdcsim.fock.apply_pair_generator`.

    With ``limit``, only terms of at most ``limit`` photons are returned,
    and terms are not generated when no later step can bring their
    descendants back to the limit: ``D`` moves the photon count by
    exactly 2, so before the k-th step a term above ``limit - 2``
    (emission only) or ``limit + 2 (order - k + 1)`` (with lowering) is
    dropped.  The result equals the uncut expansion filtered to
    ``limit``, with the same coefficients.
    """
    pairs = crystal_pairs(crystal)
    order = len(weights) - 1
    scale = weights[0]
    result = dict(terms) if scale == 1 else {occ: amp * scale for occ, amp in terms.items()}
    power = terms
    if limit is not None:
        # ``top`` bounds the photon count of ``power``'s terms, ``reach`` that of ``result``'s.
        top = reach = max(map(occupation_photons, terms), default=0)
    for k in range(1, order + 1):
        if limit is not None:
            cap = limit - 2 if creation_only else limit + 2 * (order - k + 1)
            if top > cap:
                power = {occ: amp for occ, amp in power.items() if occupation_photons(occ) <= cap}
                top = cap
            top += 2
            reach = max(reach, top)
        power = apply_pair_generator(power, pairs, creation_only=creation_only, bosonic=bosonic)
        coeff = weights[k]
        for occ, amp in power.items():
            result[occ] = result.get(occ, 0) + amp * coeff
    if limit is not None and reach > limit:
        result = {occ: amp for occ, amp in result.items() if occupation_photons(occ) <= limit}
    return result


# -- passive elements -------------------------------------------------------


def _substitution(element: Element) -> tuple[str, int, list[tuple[str, Any]]]:
    """``(path, delta, [(t_j, c_j), ...])`` of the substitution
    ``a^dag_(path, m) -> sum_j c_j a^dag_(t_j, m + delta)`` that a passive
    element makes: one or two targets, none with a zero ``c_j``."""
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


def _splits(n: int, targets: Sequence[tuple[str, Any]], bosonic: bool) -> list[tuple[Any, tuple]]:
    """Each way of sharing ``n`` photons among the one or two targets,
    the first target's count ``k`` largest first, as its weight and its
    nonzero ``(target path, count)`` placements.  The weight in
    ``(sum_j c_j a^dag_j)^n`` is ``prod c_j^k_j`` times ``C(n, k)``
    (monomial) or ``sqrt(C(n, k))`` (bosonic)."""
    shares = [(n,)] if len(targets) == 1 else [(k, n - k) for k in range(n, -1, -1)]
    out = []
    for share in shares:
        weight = math.sqrt(math.comb(n, share[0])) if bosonic else math.comb(n, share[0])
        for (_, c), k in zip(targets, share):
            weight = weight * c**k
        out.append((weight, tuple((t, k) for (t, _), k in zip(targets, share) if k)))
    return out


def substitute(
    terms: Mapping[Occupation, Any], element: Element, *, bosonic: bool = True
) -> dict[Occupation, Any]:
    """Apply a passive element to a coefficient dict, unpruned.

    The element substitutes ``a^dag_(p, m) -> sum_j c_j a^dag_(t_j, m + delta)``
    (:func:`_substitution`); ``bosonic`` selects the coefficient
    convention of :func:`~spdcsim.fock.apply_pair_generator`.  A split of
    ``n`` photons as ``k`` and ``n - k`` carries ``sqrt(C(n, k))``
    (bosonic) or ``C(n, k)`` (monomial), and ``m`` photons landing on
    ``n`` in one mode carry ``sqrt(C(n + m, n))`` (bosonic) or 1.  With
    one target on ``p`` itself (a shift, a phase, a misalignment at
    ``T = 1``) ``p``'s labels stay one in-order run of the sorted key and
    nothing merges, so each key is rebuilt in place.
    """
    path, delta, targets = _substitution(element)
    in_order = len(targets) == 1 and targets[0][0] == path
    coeff = targets[0][1]
    start = ((path,),)
    splits: dict[int, list] = {}
    out: dict[Occupation, Any] = {}
    for occ, amp in terms.items():
        # ``path``'s labels are the run ``occ[i:j]`` of the sorted tuple.
        i = j = bisect_left(occ, start)
        while j < len(occ) and occ[j][0].path == path:
            j += 1
        if i == j:
            out[occ] = out.get(occ, 0) + amp
        elif in_order:
            if coeff != 1:
                amp = amp * coeff ** sum(n for _, n in occ[i:j])
            if delta:
                run = tuple([(ModeLabel(path, label.mode + delta), n) for label, n in occ[i:j]])
                occ = occ[:i] + run + occ[j:]
            out[occ] = amp
        else:
            run = occ[i:j]
            for _, n in run:
                if n not in splits:
                    splits[n] = _splits(n, targets, bosonic)
            # One branch per way of sharing every label's photons, in the
            # order of the labels; each share is spliced into the sorted key.
            for branch in product(*[splits[n] for _, n in run]):
                key = occ[:i] + occ[j:]
                value = amp
                for (label, _), (weight, placed) in zip(run, branch):
                    if weight != 1:
                        value = value * weight
                    for target, k in placed:
                        key, now = raise_occupation(key, ModeLabel(target, label.mode + delta), k)
                        if now > k and bosonic:
                            value = value * math.sqrt(math.comb(now, k))
                out[key] = out.get(key, 0) + value
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
    series order and photon cap), which prunes once, at the end."""
    if isinstance(element, (Crystal, MultimodeCrystal)):
        weights = taylor_weights(element.g, order)
        terms = expand_crystal(state.terms, element, weights, creation_only=creation_only, limit=limit)
    else:
        terms = substitute(state.terms, element)
    return StateVector(terms)


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
