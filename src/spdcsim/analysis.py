"""Target states, fidelity, Schmidt-rank vectors, efficiency, and layout
generators for multi-crystal pair-source experiments."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .elements import Crystal, Element, ModeShifter, MultimodeCrystal, PhaseShifter, Relabel
from .elements import crystal_transfer, substitute
from .experiment import Experiment, _packed, compile_run, pattern_rule, post_select, run, sector_rule, success_fraction
from .fock import LOSS_PREFIX, KeyLayout, ModeLabel, StateVector, inner_terms, normalized_terms

#: Singular values below this count as zero when ranking reduced states.
SRV_TOLERANCE = 1e-10
#: Coupling of the strongest crystal of a :func:`two_photon_builder` chain.
CHAIN_G = 0.1


# -- target states -----------------------------------------------------------


def ghz_target(n: int, d: int, paths: Sequence[str] | None = None) -> StateVector:
    """Maximally entangled ``(1/sqrt(d)) sum_k |k, k, ..., k>`` over n paths."""
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 parties and d >= 2 levels")
    paths = _party_paths(n, paths)
    amp = 1.0 / math.sqrt(d)
    state = StateVector.zero()
    for k in range(d):
        state = state + StateVector.from_occupations(
            {ModeLabel(p, k): 1 for p in paths}, amp
        )
    return state


def w_target(n: int, paths: Sequence[str] | None = None) -> StateVector:
    """Single-excitation superposition: one vertical photon among n."""
    if n < 3:
        raise ValueError("need n >= 3 parties")
    paths = _party_paths(n, paths)
    amp = 1.0 / math.sqrt(n)
    state = StateVector.zero()
    for k in range(n):
        occ = {ModeLabel(p, 1 if i == k else 0): 1 for i, p in enumerate(paths)}
        state = state + StateVector.from_occupations(occ, amp)
    return state


def _party_paths(n: int, paths: Sequence[str] | None) -> list[str]:
    """The ``n`` distinct party ``paths``, by default a, b, c, ..."""
    if paths is None:
        if n > 26:
            raise ValueError("more than 26 paths need explicit names")
        return [chr(ord("a") + i) for i in range(n)]
    paths = list(paths)
    if len(paths) != n:
        raise ValueError(f"expected {n} paths, got {len(paths)}")
    if len(set(paths)) != n:
        raise ValueError(f"paths must be distinct, got {', '.join(paths)}")
    return paths


# -- fidelity ----------------------------------------------------------------


def fidelity(state: StateVector, target: StateVector) -> float:
    """Squared overlap ``|<target|state>|^2`` after normalizing both, on
    the state's packed keys (``experiment._packed``), decoding nothing."""
    keys, layout = _packed(state)
    return _fidelity(_encode_target(target, layout), normalized_terms(keys))


def _encode_target(target: StateVector, layout: KeyLayout) -> dict[int, complex]:
    """``target.normalized()``'s terms on ``layout``'s keys, in order; a
    term that has no key there (a label without a field, or photons above
    the bound), which no state on the layout holds, takes its own key
    below 0, so ``fock.inner_terms`` iterates as ``StateVector.inner``."""
    encoded: dict[int, complex] = {}
    for occ, amp in target.normalized().terms.items():
        try:
            key = layout.encode(occ)
        except ValueError:
            key = -1 - len(encoded)
        encoded[key] = amp
    return encoded


def _fidelity(encoded: Mapping[int, complex], psi: Mapping[int, complex]) -> float:
    """``min(|<target|psi>|^2, 1)`` of an encoded target and normalized terms on one layout."""
    if not encoded or not psi:
        raise ValueError("fidelity of the zero state is undefined")
    return min(abs(inner_terms(encoded, psi)) ** 2, 1.0)


# -- Schmidt-rank vectors -----------------------------------------------------


@dataclass(frozen=True)
class SchmidtRankVector:
    """Per-party ranks of the reduced states of a pure multiparty state."""

    parties: tuple[str, ...]
    ranks: tuple[int, ...]

    def sorted_desc(self) -> tuple[int, ...]:
        return tuple(sorted(self.ranks, reverse=True))


def schmidt_rank_vector(state: StateVector, parties: Sequence[str]) -> SchmidtRankVector:
    """Rank of each party's reduced density operator, party vs. the rest.

    Every term must put the same photon count in each party path (one
    photon in the usual post-selected case; a fixed higher count is
    accepted so composite parties can be ranked too).  Ranks come from
    the singular values of the party-vs-rest coefficient matrix, on the
    state's packed keys (``experiment._packed``), decoding nothing.
    """
    keys, layout = _packed(state)
    if not keys:
        raise ValueError("cannot rank the zero state")
    parties = list(parties)
    psi = normalized_terms(keys)
    blocks = {party: layout.block_bits((party,)) for party in parties}
    _check_party_occupancy(psi, blocks, layout.mask)
    return SchmidtRankVector(tuple(parties), tuple(_party_rank(psi, blocks[party]) for party in parties))


def _party_rank(psi: Mapping[int, complex], bits: int) -> int:
    """The Schmidt rank of packed terms ``psi`` between a party's block
    ``bits`` and the rest of the key, each injective in its occupations."""
    return schmidt_rank((key & bits, key & ~bits, amp) for key, amp in psi.items())


def schmidt_rank(cells: Iterable[tuple[Hashable, Hashable, complex]]) -> int:
    """The Schmidt rank of a bipartite state given as ``(local, rest,
    amp)`` cells, one per term: the number of singular values above
    :data:`SRV_TOLERANCE` of the matrix holding each ``amp`` in row
    ``local`` and column ``rest``, rows and columns numbered in order of
    first appearance."""
    rows: dict = {}
    cols: dict = {}
    entries: list[tuple[int, int, complex]] = []
    for local, rest, amp in cells:
        entries.append((rows.setdefault(local, len(rows)), cols.setdefault(rest, len(cols)), amp))
    matrix = np.zeros((len(rows), len(cols)), dtype=complex)
    for i, j, amp in entries:
        matrix[i, j] += amp
    singular = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(singular > SRV_TOLERANCE))


def _check_party_occupancy(psi: Mapping[int, complex], blocks: Mapping[str, int], mask: int) -> None:
    """Raise ``ValueError`` where a party's block holds no photon, or a count
    (its digit sum ``(key & bits) % mask``) other than in earlier terms."""
    expected: dict[str, int] = {}
    for key in psi:
        for party, bits in blocks.items():
            n = (key & bits) % mask
            if n == 0:
                raise ValueError(f"party path {party!r} holds no photon in some term")
            if expected.setdefault(party, n) != n:
                raise ValueError(f"party path {party!r} has varying photon number across terms")


# -- efficiency ---------------------------------------------------------------


@dataclass(frozen=True)
class EfficiencyReport:
    """Closed-form efficiency next to the simulation-derived value.

    The closed form counts ordered crystal combinations, while the
    simulated value weighs amplitudes of unordered emission patterns
    (double emissions carry the bosonic enhancement), so the two differ;
    both are reported rather than blending them.
    """

    n: int
    d: int
    formula_value: Fraction
    simulated_value: Fraction | float | None = None

    @property
    def discrepancy_note(self) -> str:
        """Why an exact simulated value differs from the closed form; empty
        when they agree, or when the value is a float (an element with
        irrational amplitudes, :func:`efficiency_simulated`), which the
        ordering argument does not explain."""
        if not isinstance(self.simulated_value, Fraction) or self.simulated_value == self.formula_value:
            return ""
        return (
            "closed form counts ordered crystal tuples; the amplitude-weighted "
            "expansion over unordered emission patterns gives "
            f"{self.simulated_value} instead of {self.formula_value}"
        )


def efficiency_formula(n: int, d: int) -> Fraction:
    """Closed-form n-photon d-level heralding efficiency ``d / (n d / 2)^(n/2)``."""
    if n % 2 != 0:
        raise ValueError("the closed form covers paired emission: n must be even")
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    return Fraction(d, (n * d // 2) ** (n // 2))


_RATIONAL_SAFE = (Crystal, MultimodeCrystal, ModeShifter, Relabel)


def efficiency_simulated(exp: Experiment) -> Fraction | float:
    """Valid n-fold weight over total n-photon weight.

    The experiment is evaluated in the pure emission expansion, whose
    amplitudes are exact monomials in the couplings.  When the element
    list allows it (crystals, mode shifters, relabelings) the expansion
    is carried out in raising-operator monomial form with integer
    coefficients (:func:`_monomial_terms`), so the double-emission
    enhancement factors are integer factorials and the returned ratio is
    an exact fraction.  Elements that introduce irrational amplitudes
    give a float ratio: ``success_fraction`` of ``post_select`` on the
    ``creation_only`` run.

    The exact count reads the packed keys and decodes nothing: the total
    sums the weights ``coeff^2 * prod n!`` of the terms holding
    ``n = len(detectors)`` photons outside the loss paths (``sector_rule``,
    as :func:`~spdcsim.experiment.success_fraction` counts them), and the
    valid weight those of the terms that pass ``post_select``'s rule
    (``pattern_rule`` with one photon per detector), in term order.

    The monomial weights of the terms of ``m`` photons share the scale
    ``Q^m`` (:func:`_monomial_terms`), which cancels in the ratio.  A
    term with ``l`` photons on loss paths holds ``n + l`` in all, so its
    weight is divided by ``Q^l`` to bring it to the sector's scale.
    """
    n = len(exp.detectors)
    if not all(isinstance(e, _RATIONAL_SAFE) for e in exp.elements):
        full = run(replace(exp, creation_only=True))
        return success_fraction(full, post_select(full, exp.detectors), n)
    elements, layout = compile_run(exp)
    terms = _monomial_terms(exp, elements, layout)
    mask = layout.mask
    # Bits 1 and up of every field: a key without them holds no field of 2+.
    multi = (mask - 1) * sum(1 << i * layout.width for i in range(len(layout.labels)))
    lost = layout.block_bits(path for path in layout.blocks if path.startswith(LOSS_PREFIX))
    if lost:
        scale = _coupling_denominator(elements)
    in_sector = sector_rule(layout, n)
    passes = pattern_rule(layout, dict.fromkeys(exp.detectors, 1))
    valid = total = 0
    for key, coeff in terms.items():
        if not in_sector(key):
            continue
        weight = _monomial_norm(key, coeff, layout, multi)
        if key & lost:
            weight = Fraction(weight, scale ** ((key & lost) % mask))
        total += weight
        if passes(key):
            valid += weight
    if total == 0:
        raise ValueError(f"no {n}-photon component in the experiment output")
    return Fraction(valid, total)


def _monomial_terms(exp: Experiment, elements: Sequence[Element], layout: KeyLayout) -> dict[int, int]:
    """The pure emission expansion of the compiled ``elements`` on
    ``layout``'s packed keys, each coefficient of a term of ``m`` photons
    (loss paths included) scaled by ``C * Q^(m/2)``, where ``C`` and
    ``Q`` are positive integers common to all terms.

    Runs the element code in the monomial convention: a term maps a key
    to the coefficient of ``prod a_dag^n |vac>``, so its squared norm is
    ``coeff^2 * prod n!``.  ``Q`` is the lcm of the denominators of the
    crystals' couplings; a crystal of coupling ``g = P / Q`` and order
    ``N`` is expanded as ``N!`` times its series, with integer weights
    ``P^k N! / k!``, so every coefficient stays an integer.  Each pair
    the crystal emits carries one factor ``Q``, and with emission only
    every pair adds two photons, which shifts and relabels keep: a term
    of ``m`` photons holds ``m / 2`` pairs, whichever crystals emitted
    them.  So every term of one photon count is scaled alike, and a ratio
    of their weights does not depend on the scale.
    """
    limit = 2 * exp.pair_budget
    order = exp.expansion_order
    scale = _coupling_denominator(elements)
    terms = {0: 1}
    for element in elements:
        if isinstance(element, (Crystal, MultimodeCrystal)):
            p, q = element.g.as_integer_ratio()
            p *= scale // q
            weights = [
                p**k * (math.factorial(order) // math.factorial(k)) for k in range(order + 1)
            ]
            terms = crystal_transfer(
                element, weights, layout, creation_only=True, bosonic=False, limit=limit
            )(terms)
        else:
            terms = substitute(terms, element, layout, bosonic=False)
    return terms


def _coupling_denominator(elements: Sequence[Element]) -> int:
    """``Q``: the lcm of the denominators of the crystals' couplings."""
    crystals = [e for e in elements if isinstance(e, (Crystal, MultimodeCrystal))]
    return math.lcm(*(crystal.g.as_integer_ratio()[1] for crystal in crystals))


def _monomial_norm(key: int, coeff: int, layout: KeyLayout, multi: int) -> int:
    """``coeff^2 * prod n!`` over the fields of ``key``: the squared norm
    of ``coeff * prod a_dag^n |vac>``.  ``multi`` holds bits 1 and up of
    every field, so a key without any of them has no field of two or
    more photons, and its norm is ``coeff^2``."""
    norm = coeff * coeff
    if not key & multi:
        return norm
    width, mask = layout.width, layout.mask
    while key:
        count = key & mask
        if count > 1:
            norm *= math.factorial(count)
        key >>= width
    return norm


def efficiency_report(n: int, d: int, *, simulate: Experiment | None = None) -> EfficiencyReport:
    """The closed form for ``(n, d)`` next to ``simulate``'s efficiency
    (:func:`efficiency_simulated`), when an experiment is given."""
    simulated = efficiency_simulated(simulate) if simulate is not None else None
    return EfficiencyReport(n=n, d=d, formula_value=efficiency_formula(n, d), simulated_value=simulated)


# -- layout generators ---------------------------------------------------------


def round_robin_matchings(n: int) -> list[list[tuple[int, int]]]:
    """All ``n - 1`` pairwise edge-disjoint perfect matchings of n points.

    Standard circle construction: one point is fixed, the others rotate.
    """
    if n % 2 != 0 or n < 2:
        raise ValueError("a perfect matching needs an even point count")
    m = n - 1
    rounds = []
    for r in range(m):
        pairs = [(m, r)]
        for k in range(1, n // 2):
            pairs.append(((r + k) % m, (r - k) % m))
        rounds.append([tuple(sorted(p)) for p in pairs])
    return rounds


def ghz_layout(n: int, d: int, *, g: float = 0.1, paths: Sequence[str] | None = None) -> Experiment:
    """d-level n-photon source: d crystal layers joined by mode shifters.

    Layer k is one perfect matching of the n detector paths; the d
    matchings are pairwise edge-disjoint, and a shifter bank after each
    layer but the last raises every path by one mode, so the k-th layer
    emits into mode ``d - 1 - k``.
    """
    if n % 2 != 0:
        raise ValueError("paired emission needs an even photon count")
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    if d > n - 1:
        raise ValueError("1-factorization exhausted: at most n - 1 disjoint layers")
    paths = _party_paths(n, paths)
    matchings = round_robin_matchings(n)[:d]
    elements: list[Element] = []
    for layer, matching in enumerate(matchings):
        for i, j in matching:
            elements.append(
                Crystal(ModeLabel(paths[i], 0), ModeLabel(paths[j], 0), g=g)
            )
        if layer < d - 1:
            elements.extend(ModeShifter(p, +1) for p in paths)
    return Experiment(
        elements=tuple(elements),
        detectors=tuple(paths),
        max_pairs=n // 2,
        expansion_order=max(2, n // 2),
    )


def two_photon_builder(coefficients: Sequence[complex]) -> Experiment:
    """Sequential crystal chain realizing ``sum_k c_k |k, k>`` on paths a and b.

    One crystal per level, mode shifters of +1 on both paths between
    crystals, per-crystal couplings set by the magnitudes (the largest
    at ``CHAIN_G``), and a phase shifter per segment accumulating the
    arguments.  The chain length is the requested dimension, which is
    the minimum.
    """
    coeffs = [complex(c) for c in coefficients]
    for i, c in enumerate(coeffs):
        if not cmath.isfinite(c):
            raise ValueError(f"coefficient {i} = {c!r} is not finite")
    if len(coeffs) < 2:
        raise ValueError("need at least two coefficients")
    biggest = max(abs(c) for c in coeffs)
    if biggest == 0.0:
        raise ValueError("coefficient vector is zero")
    # A global phase is factored out so the last crystal needs no phase.
    rotation = cmath.exp(-1j * cmath.phase(coeffs[0])) if coeffs[0] != 0 else 1.0
    coeffs = [c * rotation for c in coeffs]
    d = len(coeffs)
    label_a = ModeLabel("a", 0)
    label_b = ModeLabel("b", 0)
    elements: list[Element] = []
    # Crystal j (applied j-th) ends at level d - j; segment phases are
    # differences of consecutive arguments so each level accumulates its own.
    for j in range(d):
        level = d - 1 - j  # level written by this crystal
        magnitude = abs(coeffs[level])
        if magnitude > 0.0:
            elements.append(Crystal(label_a, label_b, g=CHAIN_G * magnitude / biggest))
        if level > 0:
            phase_step = cmath.phase(coeffs[level]) - cmath.phase(coeffs[level - 1])
            if phase_step:
                elements.append(PhaseShifter("b", phase_step))
            elements.append(ModeShifter("a", +1))
            elements.append(ModeShifter("b", +1))
    # At first order there are no closed-loop corrections, so the chain
    # amplitudes are the couplings themselves.
    return Experiment(
        elements=tuple(elements),
        detectors=("a", "b"),
        max_pairs=1,
        expansion_order=1,
    )
