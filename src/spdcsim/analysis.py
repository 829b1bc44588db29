"""Target states, fidelity, Schmidt-rank vectors, efficiency, and layout
generators for multi-crystal pair-source experiments."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .elements import Crystal, Element, ModeShifter, MultimodeCrystal, PhaseShifter, Relabel
from .elements import compile_layout, expand_crystal, substitute
from .experiment import Experiment, coincidence_weights, run
from .fock import ModeLabel, Occupation, StateVector

#: Singular values below this count as zero when ranking reduced states.
SRV_TOLERANCE = 1e-10
#: Coupling of the strongest crystal of a :func:`two_photon_builder` chain.
CHAIN_G = 0.1


# -- target states -----------------------------------------------------------


def ghz_target(n: int, d: int, paths: Sequence[str] | None = None) -> StateVector:
    """Maximally entangled ``(1/sqrt(d)) sum_k |k, k, ..., k>`` over n paths."""
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 parties and d >= 2 levels")
    paths = _default_paths(n) if paths is None else list(paths)
    if len(paths) != n:
        raise ValueError(f"expected {n} paths, got {len(paths)}")
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
    paths = _default_paths(n) if paths is None else list(paths)
    if len(paths) != n:
        raise ValueError(f"expected {n} paths, got {len(paths)}")
    amp = 1.0 / math.sqrt(n)
    state = StateVector.zero()
    for k in range(n):
        occ = {ModeLabel(p, 1 if i == k else 0): 1 for i, p in enumerate(paths)}
        state = state + StateVector.from_occupations(occ, amp)
    return state


def _default_paths(n: int) -> list[str]:
    if n > 26:
        raise ValueError("more than 26 paths need explicit names")
    return [chr(ord("a") + i) for i in range(n)]


# -- fidelity ----------------------------------------------------------------


def fidelity(state: StateVector, target: StateVector) -> float:
    """Squared overlap ``|<target|state>|^2`` after normalizing both."""
    if state.is_zero() or target.is_zero():
        raise ValueError("fidelity of the zero state is undefined")
    overlap = target.normalized().inner(state.normalized())
    return min(abs(overlap) ** 2, 1.0)


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
    the singular values of the party-vs-rest coefficient matrix.
    """
    if state.is_zero():
        raise ValueError("cannot rank the zero state")
    parties = list(parties)
    psi = state.normalized()
    _check_party_occupancy(psi, parties)
    ranks = []
    for party in parties:
        local_index: dict = {}
        rest_index: dict = {}
        entries: list[tuple[int, int, complex]] = []
        for occ, amp in psi.terms.items():
            local = tuple((label.mode, n) for label, n in occ if label.path == party)
            rest = tuple(item for item in occ if item[0].path != party)
            i = local_index.setdefault(local, len(local_index))
            j = rest_index.setdefault(rest, len(rest_index))
            entries.append((i, j, amp))
        matrix = np.zeros((len(local_index), len(rest_index)), dtype=complex)
        for i, j, amp in entries:
            matrix[i, j] += amp
        singular = np.linalg.svd(matrix, compute_uv=False)
        ranks.append(int(np.sum(singular > SRV_TOLERANCE)))
    return SchmidtRankVector(tuple(parties), tuple(ranks))


def _check_party_occupancy(state: StateVector, parties: Sequence[str]) -> None:
    expected: dict[str, int] = {}
    for occ, _ in state.terms.items():
        counts = {p: 0 for p in parties}
        for label, n in occ:
            if label.path in counts:
                counts[label.path] += n
        for party, n in counts.items():
            if n == 0:
                raise ValueError(f"party path {party!r} holds no photon in some term")
            if party in expected and expected[party] != n:
                raise ValueError(
                    f"party path {party!r} has varying photon number across terms"
                )
            expected[party] = n


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
    simulated_value: Fraction | None = None

    @property
    def discrepancy_note(self) -> str:
        if self.simulated_value is None or self.simulated_value == self.formula_value:
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
    coefficients (:func:`_monomial_weights`), so the double-emission
    enhancement factors are integer factorials and the returned ratio is
    an exact fraction.  Elements that introduce irrational amplitudes
    fall back to a float ratio.
    """
    exact = all(isinstance(e, _RATIONAL_SAFE) for e in exp.elements)
    if exact:
        weighted = _monomial_weights(exp)
    else:
        full = run(replace(exp, creation_only=True))
        weighted = ((occ, abs(amp) ** 2) for occ, amp in full.terms.items())
    valid, total = coincidence_weights(weighted, exp.detectors)
    if total == 0:
        raise ValueError(f"no {len(exp.detectors)}-photon component in the experiment output")
    return Fraction(valid, total) if exact else valid / total


def _monomial_weights(exp: Experiment) -> Iterator[tuple[Occupation, int]]:
    """Squared norms of the pure emission expansion's terms, all scaled
    by one common positive integer.

    Runs the element code in the monomial convention on the experiment's
    packed keys, decoded once at the end: a term maps a canonical
    occupation to the coefficient of ``prod a_dag^n |vac>``, so its
    squared norm is ``coeff^2 * prod n!``.  A crystal of coupling
    ``g = p / q`` and order ``N`` is expanded as ``q^N N!`` times its
    series, with integer weights ``p^k q^(N-k) N! / k!``, so every
    coefficient stays an integer; a ratio of weights does not depend on
    the common scale.
    """
    limit = 2 * exp.pair_budget
    order = exp.expansion_order
    layout = compile_layout(exp.elements, limit + 2 * order)
    terms = {0: 1}
    for element in exp.elements:
        if isinstance(element, (Crystal, MultimodeCrystal)):
            p, q = element.g.as_integer_ratio()
            weights = [
                p**k * q ** (order - k) * (math.factorial(order) // math.factorial(k))
                for k in range(order + 1)
            ]
            terms = expand_crystal(
                terms, element, weights, layout, creation_only=True, bosonic=False, limit=limit
            )
        else:
            terms = substitute(terms, element, layout, bosonic=False)
    for key, coeff in terms.items():
        occ = layout.decode(key)
        yield occ, coeff * coeff * math.prod(math.factorial(cnt) for _, cnt in occ)


def efficiency_report(n: int, d: int, *, simulate: Experiment | None = None) -> EfficiencyReport:
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
    paths = _default_paths(n) if paths is None else list(paths)
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
