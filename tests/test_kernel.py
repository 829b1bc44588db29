"""Property tests for the fused pair-generator kernel and its splices,
and for the passive-element kernel."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spdcsim.analysis import efficiency_simulated, ghz_layout
from spdcsim.elements import (
    Crystal,
    Misalignment,
    ModeShifter,
    MultimodeCrystal,
    PhaseShifter,
    Relabel,
    expand_crystal,
    substitute,
    taylor_weights,
)
from spdcsim.fock import (
    ModeLabel,
    StateVector,
    apply_pair_generator,
    lower_occupation,
    make_occupation,
    occupation_photons,
    raise_occupation,
)

# States live on paths a-c; generator labels also reach path d and
# modes -2 and 2, so some of them are absent from every state.
state_labels = st.builds(
    ModeLabel, path=st.sampled_from("abc"), mode=st.integers(min_value=-1, max_value=1)
)
pair_labels = st.builds(
    ModeLabel, path=st.sampled_from("abcd"), mode=st.integers(min_value=-2, max_value=2)
)
pairs = st.one_of(
    st.tuples(pair_labels, pair_labels),
    pair_labels.map(lambda lab: (lab, lab)),
)
pair_lists = st.lists(pairs, min_size=1, max_size=3)
occupations = st.dictionaries(state_labels, st.integers(min_value=1, max_value=3), max_size=4).map(
    make_occupation
)
amplitudes = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=10, allow_nan=False, allow_infinity=False
)
rationals = st.fractions(min_value=-10, max_value=10, max_denominator=50).filter(bool)


@st.composite
def sparse_states(draw):
    return StateVector(draw(st.dictionaries(occupations, amplitudes, min_size=1, max_size=6)))


def composed(state, label_pairs, creation_only):
    """``D`` built from the public ladder methods, one operator at a time."""
    out = StateVector.zero()
    for a, b in label_pairs:
        out = out + state.create(a).create(b)
        if not creation_only:
            out = out - state.annihilate(a).annihilate(b)
    return out


def assert_close(fused, reference):
    assert set(fused.terms) == set(reference.terms)
    for occ, amp in reference.terms.items():
        assert abs(fused.terms[occ] - amp) <= 1e-12 * max(1.0, abs(amp))


@settings(max_examples=200, deadline=None)
@given(occupations, pair_labels, st.integers(min_value=1, max_value=3))
def test_splices_match_canonical_rebuild(occ, lab, k):
    counts = dict(occ)
    raised, n = raise_occupation(occ, lab, k)
    assert n == counts.get(lab, 0) + k
    assert raised == make_occupation({**counts, lab: n})
    lowered = lower_occupation(occ, lab)
    if lab not in counts:
        assert lowered is None
    else:
        assert lowered == (make_occupation({**counts, lab: counts[lab] - 1}), counts[lab])


@settings(max_examples=200, deadline=None)
@given(sparse_states(), pair_lists)
def test_fused_generator_matches_ladder_composition(state, label_pairs):
    fused = StateVector(apply_pair_generator(state.terms, label_pairs))
    assert_close(fused, composed(state, label_pairs, creation_only=False))


@settings(max_examples=200, deadline=None)
@given(sparse_states(), pair_lists)
def test_fused_creation_only_matches_ladder_composition(state, label_pairs):
    fused = StateVector(apply_pair_generator(state.terms, label_pairs, creation_only=True))
    assert_close(fused, composed(state, label_pairs, creation_only=True))


def monomial_to_bosonic(terms):
    """Amplitude of ``c prod a_dag^n |vac>`` is ``c sqrt(prod n!)``."""
    return StateVector(
        {
            occ: complex(c) * math.sqrt(math.prod(math.factorial(n) for _, n in occ))
            for occ, c in terms.items()
        }
    )


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(occupations, rationals, min_size=1, max_size=6), pair_lists, st.booleans())
def test_monomial_convention_is_exact_and_agrees_with_bosonic(terms, label_pairs, creation_only):
    monomial = apply_pair_generator(
        terms, label_pairs, creation_only=creation_only, bosonic=False
    )
    assert all(isinstance(c, Fraction) for c in monomial.values())
    bosonic = apply_pair_generator(
        monomial_to_bosonic(terms).terms, label_pairs, creation_only=creation_only
    )
    assert_close(StateVector(bosonic), monomial_to_bosonic(monomial))


# Sources and targets on the state paths a-c, so a relabel often lands
# on occupied labels and merges.
state_paths = st.sampled_from("abc")
passive_elements = st.one_of(
    st.builds(ModeShifter, state_paths, st.integers(min_value=-2, max_value=2)),
    st.builds(PhaseShifter, state_paths, st.floats(min_value=-7, max_value=7)),
    st.builds(
        Misalignment,
        state_paths,
        st.floats(min_value=0.05, max_value=0.95),
        loss=st.just("loss#0"),
    ),
    st.builds(Relabel, state_paths, state_paths),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(occupations, rationals, min_size=1, max_size=6), passive_elements)
def test_passive_kernel_conventions_agree(terms, element):
    monomial = substitute(terms, element, bosonic=False)
    bosonic = substitute(monomial_to_bosonic(terms).terms, element)
    assert_close(StateVector(bosonic), monomial_to_bosonic(monomial))


@pytest.mark.parametrize(
    "n, d, expected",
    [
        (4, 2, Fraction(1, 5)),
        (4, 3, Fraction(1, 7)),
        (6, 2, Fraction(1, 28)),
        (6, 3, Fraction(4, 165)),
        (6, 4, Fraction(2, 91)),
        (6, 5, Fraction(3, 136)),
        (8, 2, Fraction(1, 165)),
        (8, 3, Fraction(1, 273)),
    ],
)
def test_monomial_convention_gives_ladder_fractions(n, d, expected):
    value = efficiency_simulated(ghz_layout(n, d))
    assert isinstance(value, Fraction)
    assert value == expected


# -- the pair-budget cut inside the crystal expansion ----------------------

couplings = st.floats(min_value=0.01, max_value=0.2)
orders = st.integers(min_value=1, max_value=4)
single_crystals = st.builds(Crystal, pair_labels, pair_labels, g=couplings)
multimode_crystals = st.builds(
    MultimodeCrystal,
    st.sampled_from("abcd"),
    st.sampled_from("abcd"),
    modes=st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=3, unique=True).map(
        tuple
    ),
    g=couplings,
)
crystals = st.one_of(single_crystals, multimode_crystals)


def cut_to(terms, limit):
    return {occ: c for occ, c in terms.items() if occupation_photons(occ) <= limit}


@settings(max_examples=150, deadline=None)
@given(sparse_states(), crystals, orders, st.integers(min_value=0, max_value=6), st.booleans())
def test_capped_float_expansion_equals_filtered_full_expansion(
    state, crystal, order, budget, creation_only
):
    weights = taylor_weights(crystal.g, order)
    full = expand_crystal(state.terms, crystal, weights, creation_only=creation_only)
    capped = expand_crystal(
        state.terms, crystal, weights, creation_only=creation_only, limit=2 * budget
    )
    assert capped == cut_to(full, 2 * budget)


integer_terms = st.dictionaries(
    occupations, st.integers(min_value=-50, max_value=50).filter(bool), min_size=1, max_size=6
)


@settings(max_examples=150, deadline=None)
@given(
    integer_terms,
    crystals,
    orders,
    st.integers(min_value=0, max_value=6),
    st.booleans(),
    st.data(),
)
def test_capped_monomial_expansion_equals_filtered_full_expansion(
    terms, crystal, order, budget, creation_only, data
):
    size = order + 1
    weights = data.draw(st.lists(st.integers(min_value=1, max_value=10**6), min_size=size, max_size=size))
    full = expand_crystal(terms, crystal, weights, creation_only=creation_only, bosonic=False)
    capped = expand_crystal(
        terms, crystal, weights, creation_only=creation_only, bosonic=False, limit=2 * budget
    )
    assert capped == cut_to(full, 2 * budget)
