"""The exact (integer) efficiency against its float fallback and against
an oracle that scales each crystal by its own coupling's denominator."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from spdcsim.analysis import efficiency_simulated
from spdcsim.elements import (
    Crystal,
    ModeShifter,
    MultimodeCrystal,
    PhaseShifter,
    Relabel,
    crystal_transfer,
    substitute,
)
from spdcsim.experiment import Experiment, compile_run
from spdcsim.fock import ModeLabel, occupation_photons

from conftest import CORPUS, load_experiment

#: Exact efficiencies of the corpus files whose elements are all rational-safe
#: and whose output has an n-photon component.
EXACT_CORPUS = {
    "found_ghz4_polarization.exp": Fraction(1, 5),
    "found_highdim_shifters.exp": Fraction(1, 7),
    "ghz6_5dim_oam.exp": Fraction(3, 136),
    "overlapped_double_pair.exp": Fraction(1),
}


def float_fallback(exp):
    """The same experiment forced onto the float path by a null phase."""
    return replace(exp, elements=exp.elements + (PhaseShifter(exp.detectors[0], 0.0),))


def assert_evaluators_agree(exp):
    exact = efficiency_simulated(exp)
    approx = efficiency_simulated(float_fallback(exp))
    assert isinstance(exact, Fraction)
    assert isinstance(approx, float)
    assert abs(approx - float(exact)) <= 1e-12


def test_exact_corpus_files_are_the_pinned_ones():
    exact = set()
    for path in CORPUS:
        try:
            value = efficiency_simulated(load_experiment(path.name))
        except ValueError:
            continue
        if isinstance(value, Fraction):
            exact.add(path.name)
    assert exact == set(EXACT_CORPUS)


@pytest.mark.parametrize("name, expected", sorted(EXACT_CORPUS.items()))
def test_corpus_exact_efficiency_is_pinned_and_matches_float(name, expected):
    exp = load_experiment(name)
    assert efficiency_simulated(exp) == expected
    assert_evaluators_agree(exp)


PATHS = "abcd"
labels = st.builds(ModeLabel, path=st.sampled_from(PATHS + "e"), mode=st.integers(0, 2))
# Short dyadic couplings next to arbitrary floats, so denominators differ.
couplings = st.one_of(
    st.floats(min_value=0.01, max_value=0.2), st.sampled_from([0.125, 0.0625, 0.1875])
)
elements = st.one_of(
    st.builds(Crystal, labels, labels, g=couplings),
    st.builds(
        MultimodeCrystal,
        st.sampled_from(PATHS),
        st.sampled_from(PATHS),
        modes=st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True).map(tuple),
        g=couplings,
    ),
    st.builds(ModeShifter, st.sampled_from(PATHS), st.integers(-1, 1)),
    st.builds(Relabel, st.just("e"), st.sampled_from(PATHS)),
)


@settings(max_examples=60, deadline=None)
@given(couplings, couplings, st.lists(elements, max_size=5), st.integers(1, 3))
def test_mixed_coupling_exact_efficiency_matches_float(g_ab, g_cd, extra, expansion_order):
    # The a-b and c-d pairs give every setup a valid four-fold term.
    matching = (
        Crystal(ModeLabel("a", 0), ModeLabel("b", 0), g=g_ab),
        Crystal(ModeLabel("c", 0), ModeLabel("d", 0), g=g_cd),
    )
    exp = Experiment(
        elements=matching + tuple(extra), detectors=tuple(PATHS), expansion_order=expansion_order
    )
    crystals = [e for e in exp.elements if isinstance(e, (Crystal, MultimodeCrystal))]
    assume(len({e.g.as_integer_ratio()[1] for e in crystals}) > 1)
    assert efficiency_simulated(exp) > 0
    assert_evaluators_agree(exp)


def per_crystal_denominator_efficiency(exp):
    """The exact efficiency with each crystal of coupling ``p/q`` and order
    ``N`` applied as ``q^N N!`` times its series (integer weights
    ``p^k q^(N-k) N!/k!``), which scales every term alike, counted on
    decoded occupations."""
    elements, layout = compile_run(exp)
    order, limit = exp.expansion_order, 2 * exp.pair_budget
    terms = {0: 1}
    for element in elements:
        if isinstance(element, (Crystal, MultimodeCrystal)):
            p, q = element.g.as_integer_ratio()
            weights = [
                p**k * q ** (order - k) * math.factorial(order) // math.factorial(k)
                for k in range(order + 1)
            ]
            terms = crystal_transfer(
                element, weights, layout, creation_only=True, bosonic=False, limit=limit
            )(terms)
        else:
            terms = substitute(terms, element, layout, bosonic=False)
    n = len(exp.detectors)
    valid = total = 0
    for key, coeff in terms.items():
        occ = layout.decode(key)
        if occupation_photons(occ, include_loss=False) != n:
            continue
        weight = coeff * coeff * math.prod(math.factorial(count) for _, count in occ)
        total += weight
        photon_paths = sorted(label.path for label, count in occ for _ in range(count))
        if photon_paths == sorted(exp.detectors):
            valid += weight
    return Fraction(valid, total)


# Relabels onto a loss path, with room for more pairs than the detectors
# need, put terms that lost photons into the n-photon sector.
oracle_elements = st.one_of(elements, st.builds(Relabel, st.just("e"), st.just("loss#0")))


@settings(max_examples=60, deadline=None)
@given(
    couplings,
    couplings,
    st.lists(oracle_elements, max_size=5),
    st.integers(1, 3),
    st.sampled_from([None, 3]),
)
def test_exact_efficiency_matches_per_crystal_denominator_oracle(
    g_ab, g_cd, extra, expansion_order, max_pairs
):
    matching = (
        Crystal(ModeLabel("a", 0), ModeLabel("b", 0), g=g_ab),
        Crystal(ModeLabel("c", 0), ModeLabel("d", 0), g=g_cd),
    )
    exp = Experiment(
        elements=matching + tuple(extra),
        detectors=tuple(PATHS),
        max_pairs=max_pairs,
        expansion_order=expansion_order,
    )
    crystals = [e for e in exp.elements if isinstance(e, (Crystal, MultimodeCrystal))]
    assume(len({e.g.as_integer_ratio()[1] for e in crystals}) > 1)
    assert efficiency_simulated(exp) == per_crystal_denominator_efficiency(exp)
