"""Property tests for the packed occupation keys, the fused
pair-generator kernel, the passive-element kernel, and the splices that
``StateVector.create`` and ``annihilate`` are built on.

The kernels run on packed ``int`` keys; each test packs its states on a
key layout, applies the kernel and unpacks, so the oracles stay the
canonical occupation tuples."""

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
    apply_element,
    compile_layout,
    expand_crystal,
    resolve_loss_paths,
    substitute,
    taylor_weights,
)
from spdcsim.experiment import Experiment, run
from spdcsim.fock import (
    KeyLayout,
    ModeLabel,
    StateVector,
    apply_pair_generator,
    lower_occupation,
    make_occupation,
    occupation_photons,
    raise_occupation,
    vacuum,
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


def labels_of(terms):
    return {label for occ in terms for label, _ in occ}


def most_photons(terms):
    return max(map(occupation_photons, terms), default=0)


def pack(layout, terms):
    return {layout.encode(occ): c for occ, c in terms.items()}


def unpack(layout, terms):
    return {layout.decode(key): c for key, c in terms.items()}


def generator(terms, label_pairs, **options):
    """``apply_pair_generator`` on occupation-keyed ``terms``."""
    reach = {}
    for label in labels_of(terms) | {lab for pair in label_pairs for lab in pair}:
        reach.setdefault(label.path, set()).add(label.mode)
    layout = KeyLayout(reach, most_photons(terms) + 2)
    slots = [(layout.fields[a], layout.fields[b]) for a, b in label_pairs]
    return unpack(layout, apply_pair_generator(pack(layout, terms), slots, layout.mask, **options))


@settings(max_examples=200, deadline=None)
@given(sparse_states(), pair_lists)
def test_fused_generator_matches_ladder_composition(state, label_pairs):
    fused = StateVector(generator(state.terms, label_pairs))
    assert_close(fused, composed(state, label_pairs, creation_only=False))


@settings(max_examples=200, deadline=None)
@given(sparse_states(), pair_lists)
def test_fused_creation_only_matches_ladder_composition(state, label_pairs):
    fused = StateVector(generator(state.terms, label_pairs, creation_only=True))
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
    monomial = generator(terms, label_pairs, creation_only=creation_only, bosonic=False)
    assert all(isinstance(c, Fraction) for c in monomial.values())
    bosonic = generator(monomial_to_bosonic(terms).terms, label_pairs, creation_only=creation_only)
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
    layout = compile_layout((element,), most_photons(terms), labels_of(terms))
    monomial = unpack(layout, substitute(pack(layout, terms), element, layout, bosonic=False))
    bosonic_in = pack(layout, monomial_to_bosonic(terms).terms)
    bosonic = unpack(layout, substitute(bosonic_in, element, layout))
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


def expansion(terms, crystal, weights, **options):
    """``expand_crystal`` on occupation-keyed ``terms``."""
    bound = most_photons(terms) + 2 * (len(weights) - 1)
    layout = compile_layout((crystal,), bound, labels_of(terms))
    return unpack(layout, expand_crystal(pack(layout, terms), crystal, weights, layout, **options))


@settings(max_examples=150, deadline=None)
@given(sparse_states(), crystals, orders, st.integers(min_value=0, max_value=6), st.booleans())
def test_capped_float_expansion_equals_filtered_full_expansion(
    state, crystal, order, budget, creation_only
):
    weights = taylor_weights(crystal.g, order)
    full = expansion(state.terms, crystal, weights, creation_only=creation_only)
    capped = expansion(state.terms, crystal, weights, creation_only=creation_only, limit=2 * budget)
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
    full = expansion(terms, crystal, weights, creation_only=creation_only, bosonic=False)
    capped = expansion(
        terms, crystal, weights, creation_only=creation_only, bosonic=False, limit=2 * budget
    )
    assert capped == cut_to(full, 2 * budget)


# -- packed keys ---------------------------------------------------------------

packed_labels = st.builds(
    ModeLabel, path=st.sampled_from(["a", "b", "loss#0", "loss#1"]), mode=st.integers(-3, 3)
)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_encode_decode_round_trip(width, data):
    bound = 2**width - 2  # the largest bound of a ``width``-bit layout
    counts = data.draw(st.dictionaries(packed_labels, st.integers(1, bound), min_size=1, max_size=5))
    while sum(counts.values()) > bound:  # keep the term within the bound
        label = max(counts, key=counts.get)
        counts[label] -= 1
        if not counts[label]:
            del counts[label]
    occ = make_occupation(counts)
    reach = {}
    for label in data.draw(st.lists(packed_labels, max_size=4)) + [lab for lab, _ in occ]:
        reach.setdefault(label.path, set()).add(label.mode)
    layout = KeyLayout(reach, bound)
    assert layout.width == width
    key = layout.encode(occ)
    assert layout.decode(key) == occ
    assert key % layout.mask == occupation_photons(occ)


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_layout_rejects_a_term_that_would_wrap(width):
    layout = KeyLayout({"a": {0}, "b": {-1, 1}}, 2**width - 2)
    assert layout.width == width
    full = 2**width - 1
    with pytest.raises(ValueError, match="exceed"):
        layout.encode(make_occupation({ModeLabel("a", 0): full}))
    with pytest.raises(ValueError, match="exceed"):
        layout.encode(make_occupation({ModeLabel("a", 0): full - 1, ModeLabel("b", 1): 1}))
    with pytest.raises(ValueError, match="no field"):
        layout.encode(make_occupation({ModeLabel("c", 0): 1}))


@pytest.mark.parametrize("photons", [1, 3, 7, 15, 31])
def test_apply_element_widens_fields_for_full_states(photons):
    # Photon counts at 2^W - 1 for W = 1..5: the element's own layout must
    # take a wider field and match the ladder-operator reference.
    a, b = ModeLabel("a", 0), ModeLabel("b", 0)
    state = StateVector.from_occupations({a: photons}, 0.5) + StateVector.from_occupations({b: 1})
    crystal = Crystal(a, b, g=0.1)
    out = apply_element(state, crystal, order=1)
    assert_close(out, state + composed(state, [(a, b)], creation_only=False) * 0.1)
    shifted = apply_element(out, ModeShifter("a", -2))
    assert make_occupation({ModeLabel("a", -2): photons + 1, b: 1}) in shifted.terms


# Element runs over paths a-c, with shifts, phases, merges and splits.
run_elements = st.lists(
    st.one_of(
        st.builds(Crystal, pair_labels.filter(lambda lab: lab.path != "d"), state_labels, g=couplings),
        st.builds(
            MultimodeCrystal,
            state_paths,
            state_paths,
            modes=st.lists(st.integers(-1, 1), min_size=1, max_size=2, unique=True).map(tuple),
            g=couplings,
        ),
        st.builds(ModeShifter, state_paths, st.integers(min_value=-2, max_value=2)),
        st.builds(PhaseShifter, state_paths, st.floats(min_value=-7, max_value=7)),
        st.builds(Misalignment, state_paths, st.sampled_from([0.0, 0.6, 1.0])),
        st.builds(Relabel, state_paths, state_paths),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(run_elements, st.integers(min_value=1, max_value=3), st.booleans())
def test_run_layout_equals_per_element_layouts(elements, budget, creation_only):
    """One layout compiled for the whole run gives the same state, term
    for term and in the same order, as a fresh layout per element."""
    exp = Experiment(elements=tuple(elements), max_pairs=budget, creation_only=creation_only)
    state = vacuum()
    for element in resolve_loss_paths(exp.elements):
        state = apply_element(
            state, element, order=exp.expansion_order, creation_only=creation_only, limit=2 * budget
        )
    out = run(exp)
    assert list(out.terms.items()) == list(state.terms.items())
