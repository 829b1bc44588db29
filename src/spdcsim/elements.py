"""Optical elements as pure transforms on :class:`~spdcsim.fock.StateVector`.

Photon-pair sources are modeled by the truncated expansion

    U = 1 + g D + (g^2 / 2!) D^2 + ... + (g^order / order!) D^order,

with ``D = a^dag_A a^dag_B - a_A a_B`` for a single-mode crystal and a
mode-summed ``D`` for a multimode crystal.  The lowering part of ``D``
carries the stimulated- and frustrated-emission physics; it can be
switched off to obtain the pure emission expansion whose amplitudes are
exact monomials in the pump couplings.  Every passive element is one
substitution of the raising operators on one path (:func:`substitute`).
Both kernels work on coefficient dicts over packed ``int`` keys, laid
out once per element list by :func:`compile_layout`.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Sequence, Union

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
    terms: Mapping[int, Any],
    crystal: Crystal | MultimodeCrystal,
    weights: Sequence[Any],
    layout: KeyLayout,
    *,
    creation_only: bool = False,
    bosonic: bool = True,
    limit: int | None = None,
) -> dict[int, Any]:
    """``sum_k weights[k] D^k`` applied to a coefficient dict on
    ``layout``'s packed keys, unpruned.

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
    fields = layout.fields
    slots = [(fields[a], fields[b]) for a, b in crystal_pairs(crystal)]
    modulus = layout.mask  # 2^W - 1: ``key % modulus`` is the photon count
    order = len(weights) - 1
    scale = weights[0]
    result = dict(terms) if scale == 1 else {key: amp * scale for key, amp in terms.items()}
    power = terms
    if limit is not None:
        # ``top`` bounds the photon count of ``power``'s terms, ``reach`` that of ``result``'s.
        top = reach = max([key % modulus for key in terms], default=0)
    for k in range(1, order + 1):
        if limit is not None:
            cap = limit - 2 if creation_only else limit + 2 * (order - k + 1)
            if top > cap:
                power = {key: amp for key, amp in power.items() if key % modulus <= cap}
                top = cap
            top += 2
            reach = max(reach, top)
        power = apply_pair_generator(
            power, slots, layout.mask, creation_only=creation_only, bosonic=bosonic
        )
        coeff = weights[k]
        for key, amp in power.items():
            result[key] = result.get(key, 0) + amp * coeff
    if limit is not None and reach > limit:
        result = {key: amp for key, amp in result.items() if key % modulus <= limit}
    return result


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


def compile_layout(
    elements: Sequence[Element], bound: int, labels: Iterable[ModeLabel] = ()
) -> KeyLayout:
    """The packed-key layout of a run of ``elements`` that starts on
    ``labels`` and holds at most ``bound`` photons per term.

    A static pass collects every ``(path, mode)`` a photon can reach:
    sources add their labels, and a passive element adds the modes of its
    path, moved by ``delta``, to each of its targets.  A target on another
    path (a relabel or a misalignment, both with ``delta = 0``) then gets
    every mode of its source, so :func:`substitute` can move the source's
    whole block into it.
    """
    modes: dict[str, set[int]] = {}
    for label in labels:
        modes.setdefault(label.path, set()).add(label.mode)
    joins = []
    for element in elements:
        if isinstance(element, (Crystal, MultimodeCrystal)):
            for pair in crystal_pairs(element):
                for label in pair:
                    modes.setdefault(label.path, set()).add(label.mode)
            continue
        path, delta, targets = _substitution(element)
        joins.extend((path, target) for target, _ in targets if target != path)
        if path in modes:
            moved = {m + delta for m in modes[path]}
            for target, _ in targets:
                modes.setdefault(target, set()).update(moved)
    grown = True
    while grown:
        grown = False
        for path, target in joins:
            if path in modes and not modes[path] <= modes.setdefault(target, set()):
                modes[target] |= modes[path]
                grown = True
    return KeyLayout(modes, bound)


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
    phase reads the block's digit sum.  Otherwise ``p``'s block is taken
    out and its fields are added into the targets' blocks, label by
    label in mode order.
    """
    path, delta, targets = _substitution(element)
    if path not in layout.blocks:
        # No term holds a photon in ``path``.  ``0 + amp``, like the
        # accumulation in every branch below, turns a -0.0 part into 0.0.
        return {key: 0 + amp for key, amp in terms.items()}
    out: dict[int, Any] = {}
    get = out.get
    width, mask = layout.width, layout.mask
    offset, low, size = layout.blocks[path]
    path_bits = ((1 << size * width) - 1) << offset
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
    comb, sqrt = math.comb, math.sqrt
    if len(targets) == 1:
        # A relabel (or a misalignment at T = 0): the coefficient is 1, so
        # the block moves whole and only the merge factors remain.
        base = bases[0]
        landing = (path_bits >> offset) << base
        for key, amp in terms.items():
            bits = key & path_bits
            if not bits:
                out[key] = get(key, 0) + amp
                continue
            key -= bits
            bits >>= offset
            if bosonic and key & landing:
                shift, rest = base, bits
                while rest:
                    n = rest & mask
                    held = key >> shift & mask
                    if n and held:
                        amp = amp * sqrt(comb(held + n, n))
                    rest >>= width
                    shift += width
            key += bits << base
            out[key] = get(key, 0) + amp
        return out
    # A split into two targets: one branch per way of sharing each field's
    # photons, the first field's share varying slowest.
    coeffs = [c for _, c in targets]
    shares: dict[int, list] = {}
    for key, amp in terms.items():
        bits = key & path_bits
        if not bits:
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


def _shares(n: int, coeffs: Sequence[Any], bosonic: bool) -> list[tuple[Any, tuple[int, int]]]:
    """Each way ``(k, n - k)`` of sharing ``n`` photons between two
    targets, ``k`` largest first, with its weight in ``(c_1 a^dag_1 +
    c_2 a^dag_2)^n``: ``c_1^k c_2^(n-k)`` times ``C(n, k)`` (monomial) or
    ``sqrt(C(n, k))`` (bosonic)."""
    out = []
    for k in range(n, -1, -1):
        weight = math.sqrt(math.comb(n, k)) if bosonic else math.comb(n, k)
        weight = weight * coeffs[0] ** k
        weight = weight * coeffs[1] ** (n - k)
        out.append((weight, (k, n - k)))
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
    element's, evolved, and unpacked.
    """
    labels = {label for occ in state.terms for label, _ in occ}
    most = max(map(occupation_photons, state.terms), default=0)
    layout = compile_layout((element,), max(most, limit or 0) + 2 * order, labels)
    terms = {layout.encode(occ): amp for occ, amp in state.terms.items()}
    terms = evolve(terms, element, layout, order=order, creation_only=creation_only, limit=limit)
    return StateVector({layout.decode(key): amp for key, amp in terms.items()})


def evolve(
    terms: Mapping[int, Any],
    element: Element,
    layout: KeyLayout,
    *,
    order: int,
    creation_only: bool,
    limit: int | None,
) -> dict[int, Any]:
    """One element on packed float amplitudes, pruned as
    :class:`~spdcsim.fock.StateVector` prunes."""
    if isinstance(element, (Crystal, MultimodeCrystal)):
        weights = taylor_weights(element.g, order)
        terms = expand_crystal(terms, element, weights, layout, creation_only=creation_only, limit=limit)
    else:
        terms = substitute(terms, element, layout)
    return {key: amp for key, amp in terms.items() if abs(amp) > PRUNE_EPSILON}


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
