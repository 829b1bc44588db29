"""Property tests for the packed occupation keys, the fused
pair-generator kernel, the crystal expansion's transfer tables, which
live as long as their step and no longer, the passive-element kernel,
and the splices that ``StateVector.create`` and ``annihilate`` are
built on.

The kernels run on packed ``int`` keys; each test packs its states on a
key layout, applies the kernel and unpacks, so the oracles stay the
canonical occupation tuples."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from spdcsim import elements
from spdcsim.analysis import efficiency_simulated, ghz_layout, ghz_target
from spdcsim.elements import (
    Crystal,
    Misalignment,
    ModeShifter,
    MultimodeCrystal,
    PhaseShifter,
    Relabel,
    apply_element,
    compile_layout,
    crystal_pairs,
    crystal_transfer,
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
from spdcsim.search import ElementPool, FidelityTarget, SearchConfig, SrvTarget, search, search_with_stats

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


def relabelled_by_the_merge_loop(terms, source, target, bosonic):
    """``Relabel(source, target)`` on occupation-keyed ``terms`` as the
    merge loop of ``substitute`` makes it: each of the source's labels, in
    mode order, lands on the target's label of its mode, times
    ``sqrt(C(held + k, k))`` for ``k`` photons landing on ``held``
    (bosonic), and each result is added to what its key holds."""
    out = {}
    for occ, amp in terms.items():
        counts = dict(occ)
        for label, k in occ:
            if label.path == source:
                del counts[label]
                landing = ModeLabel(target, label.mode)
                held = counts.get(landing, 0)
                counts[landing] = held + k
                if held and bosonic:
                    amp = amp * math.sqrt(math.comb(held + k, k))
        moved = make_occupation(counts)
        out[moved] = out.get(moved, 0) + amp
    return out


signed_zero_amplitudes = st.one_of(
    amplitudes, st.sampled_from([complex(-0.0, 1.0), complex(0.5, -0.0), complex(-0.0, -0.0) + 0.25])
)
A0, A1, B0 = ModeLabel("a", 0), ModeLabel("a", 1), ModeLabel("b", 0)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(occupations, signed_zero_amplitudes, min_size=1, max_size=6),
    st.sampled_from([("a", "b"), ("b", "a"), ("a", "c"), ("c", "b")]),
    st.booleans(),
)
# A target with no photon where the block lands, so the block moves in
# one add, and an occupied one, so the terms take the merge loop; each
# also holds a term that lands on the key of an earlier one.
@example({((A0, 1),): 0.5 - 0.0j, ((B0, 1),): complex(-0.0, 2.0), ((A1, 2),): 1j}, ("a", "b"), True)
@example({((A0, 1), (B0, 1)): 0.5, ((B0, 2),): 0.25, ((A0, 2),): -1.0}, ("a", "b"), True)
def test_a_relabel_onto_empty_fields_equals_the_merge_loop(terms, paths, bosonic):
    source, target = paths
    element = Relabel(source, target)
    layout = compile_layout((element,), most_photons(terms), labels_of(terms))
    out = substitute(pack(layout, terms), element, layout, bosonic=bosonic)
    expected = relabelled_by_the_merge_loop(terms, source, target, bosonic)
    assert repr(list(out.items())) == repr([(layout.encode(occ), amp) for occ, amp in expected.items()])


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
    """``crystal_transfer``'s step on occupation-keyed ``terms``."""
    bound = most_photons(terms) + 2 * (len(weights) - 1)
    layout = compile_layout((crystal,), bound, labels_of(terms))
    return unpack(layout, crystal_transfer(crystal, weights, layout, **options)(pack(layout, terms)))


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


# -- the transfer table against the power-by-power series -------------------


def series(terms, crystal, weights, *, creation_only, bosonic, limit):
    """``sum_k weights[k] D^k`` on occupation-keyed ``terms``, one
    ``apply_pair_generator`` power at a time over the whole state, uncut,
    then filtered to ``limit``."""
    bound = most_photons(terms) + 2 * (len(weights) - 1)
    layout = compile_layout((crystal,), bound, labels_of(terms))
    slots = [(layout.fields[a], layout.fields[b]) for a, b in crystal_pairs(crystal)]
    power = pack(layout, terms)
    out = {}
    for k, weight in enumerate(weights):
        if k:
            power = apply_pair_generator(
                power, slots, layout.mask, creation_only=creation_only, bosonic=bosonic
            )
        for key, c in power.items():
            out[key] = out.get(key, 0) + c * weight
    out = unpack(layout, out)
    return out if limit is None else cut_to(out, limit)


limits = st.one_of(st.none(), st.integers(min_value=0, max_value=6).map(lambda budget: 2 * budget))


@settings(max_examples=200, deadline=None)
@given(sparse_states(), crystals, orders, limits, st.booleans())
def test_float_transfer_table_equals_power_by_power_series(state, crystal, order, limit, creation_only):
    weights = taylor_weights(crystal.g, order)
    options = dict(creation_only=creation_only, limit=limit)
    table = expansion(state.terms, crystal, weights, **options)
    reference = series(state.terms, crystal, weights, bosonic=True, **options)
    assert table.keys() == reference.keys()
    for occ, amp in reference.items():
        assert abs(table[occ] - amp) <= 1e-12 * max(1.0, abs(amp))


@settings(max_examples=200, deadline=None)
@given(integer_terms, crystals, orders, limits, st.booleans(), st.data())
def test_monomial_transfer_table_equals_power_by_power_series(
    terms, crystal, order, limit, creation_only, data
):
    size = order + 1
    weights = data.draw(st.lists(st.integers(min_value=1, max_value=10**6), min_size=size, max_size=size))
    options = dict(creation_only=creation_only, bosonic=False, limit=limit)
    assert expansion(terms, crystal, weights, **options) == series(terms, crystal, weights, **options)


# -- a step's transfer table ------------------------------------------------


def exact(terms):
    """``terms`` with every coefficient as its type and repr, so that
    ``==`` tells 0.0 from -0.0 and 1 from 1.0."""
    return {key: (type(c), repr(c)) for key, c in terms.items()}


def shared_layout(crystal, weights, *term_dicts):
    """One layout for several occupation-keyed states, so one step can
    expand them all."""
    labels = set().union(*map(labels_of, term_dicts))
    bound = max(map(most_photons, term_dicts)) + 2 * (len(weights) - 1)
    return compile_layout((crystal,), bound, labels)


float_weights = st.builds(taylor_weights, couplings, orders)
int_weights = st.lists(st.integers(min_value=1, max_value=10**6), min_size=2, max_size=5)


@settings(max_examples=200, deadline=None)
@given(st.data(), crystals, limits, st.booleans(), st.booleans())
def test_a_warm_table_gives_the_cold_result_bit_for_bit(data, crystal, limit, creation_only, bosonic):
    """A step whose table another state's expansion has partly filled
    gives a fresh step's result, bit for bit, and so does its next call."""
    if bosonic:
        first, second = data.draw(sparse_states()).terms, data.draw(sparse_states()).terms
        weights = data.draw(float_weights)
    else:
        first, second = data.draw(integer_terms), data.draw(integer_terms)
        weights = data.draw(int_weights)
    layout = shared_layout(crystal, weights, first, second)
    options = dict(creation_only=creation_only, bosonic=bosonic, limit=limit)
    cold = crystal_transfer(crystal, weights, layout, **options)(pack(layout, second))
    step = crystal_transfer(crystal, weights, layout, **options)
    step(pack(layout, first))
    warm = step(pack(layout, second))
    assert list(exact(warm).items()) == list(exact(cold).items())
    again = step(pack(layout, second))
    assert list(exact(again).items()) == list(exact(cold).items())


def test_a_second_call_expands_nothing(monkeypatch):
    """A step expands each local occupation once; a new step for the same
    crystal starts from an empty table."""
    calls = []

    def counted(*args, **options):
        calls.append(options)
        return apply_pair_generator(*args, **options)

    monkeypatch.setattr(elements, "apply_pair_generator", counted)
    a, b = ModeLabel("a", 0), ModeLabel("b", 0)
    crystal = Crystal(a, b, g=0.1)
    terms = {make_occupation({a: 1}): 0.5, make_occupation({b: 2}): 1.0}
    layout = compile_layout((crystal,), 8, labels_of(terms))
    weights = taylor_weights(0.1, 3)
    step = crystal_transfer(crystal, weights, layout, limit=6)
    first = step(pack(layout, terms))
    assert len(calls) == 6  # one per power per new local occupation
    second = step(pack(layout, terms))
    assert len(calls) == 6
    assert exact(second) == exact(first)
    mixed = {make_occupation({a: 1}): 0.5, make_occupation({a: 1, b: 1}): 1.0}
    step(pack(layout, mixed))
    assert len(calls) == 9  # only the new occupation, one call per power
    fresh = crystal_transfer(crystal, weights, layout, limit=6)(pack(layout, terms))
    assert len(calls) == 15
    assert exact(fresh) == exact(first)


@settings(max_examples=150, deadline=None)
@given(sparse_states(), crystals, orders, limits, st.booleans())
def test_no_stored_entry_holds_more_than_the_limit(state, crystal, order, limit, creation_only):
    """``_expand_local``'s entries for each local occupation of the state
    come fewest photons first, and none holds more than the limit."""
    weights = taylor_weights(crystal.g, order)
    layout = compile_layout((crystal,), most_photons(state.terms) + 2 * order, labels_of(state.terms))
    mask = layout.mask
    limit = layout.bound if limit is None else limit
    slots = [(layout.fields[a], layout.fields[b]) for a, b in crystal_pairs(crystal)]
    local_bits = 0
    for a, b in slots:
        local_bits |= mask << a | mask << b
    for key in pack(layout, state.terms):
        local = key & local_bits
        entries = elements._expand_local(local, slots, mask, weights, creation_only, True, limit)
        assert entries == sorted(entries)
        for photons, delta, _ in entries:
            assert photons == (local + delta) % mask <= limit


def test_equal_weights_of_different_types_get_distinct_tables():
    a, b = ModeLabel("a", 0), ModeLabel("b", 0)
    crystal = Crystal(a, b)
    layout = compile_layout((crystal,), 4)
    results = {}
    for one in (1, 1.0, Fraction(1)):
        out = crystal_transfer(crystal, [one] * 3, layout, creation_only=True, bosonic=False)({0: 1})
        results[type(one)] = out
        assert {type(c) for c in out.values()} == {type(one)}
    assert results[int] == results[float] == results[Fraction]


#: Criterion 13's search (``test_acceptance``), cut to 3000 trials.
GHZ_SEARCH = SearchConfig(
    pool=ElementPool(paths=("a", "b", "c", "d"), kinds=("crystal",), crystal_modes=((0, 0), (1, 1))),
    detectors=("a", "b", "c", "d"),
    target=FidelityTarget(ghz_target(4, 2), threshold=0.999),
    max_elements=4,
    budget=3000,
    seed=20240817,
)
#: A five-kind search on a rank target, 1000 trials.
MIXED_SEARCH = SearchConfig(
    pool=ElementPool(
        paths=("a", "b", "c", "d"),
        kinds=("crystal", "multimode", "shift", "phase", "relabel"),
        crystal_modes=((0, 0), (0, 1), (1, 0), (1, 1)),
    ),
    detectors=("a", "b", "c", "d"),
    target=SrvTarget(parties=("b", "c", "d"), ranks=(4, 2, 2)),
    max_elements=6,
    budget=1000,
    seed=777,
)


def test_no_state_outlives_a_search(monkeypatch):
    """Each search, run twice in one process with other searches between,
    gives the same hits, the same stats bar the timings, and expands the
    same local occupations again: no table outlives the call."""
    expanded = []

    def counted(*args):
        expanded.append(args[0])
        return expand_local(*args)

    expand_local = elements._expand_local
    monkeypatch.setattr(elements, "_expand_local", counted)

    def outcome(config):
        expanded.clear()
        hits, stats = search_with_stats(config)
        record = stats.record()
        for timing in ("draw_s", "score_s", "trials_per_s"):
            del record[timing]
        return [(hit.trial_index, hit.experiment, hit.score) for hit in hits], record, len(expanded)

    first = [outcome(config) for config in (GHZ_SEARCH, MIXED_SEARCH)]
    search(replace(GHZ_SEARCH, seed=7, budget=1000))
    search(replace(MIXED_SEARCH, seed=8))
    assert [outcome(config) for config in (GHZ_SEARCH, MIXED_SEARCH)] == first
    assert first[0][0] and first[0][2] == 105


def test_a_span_builds_each_crystals_step_once(monkeypatch):
    """Every setup a search span scores shares the span's step of each
    crystal, so ``crystal_transfer`` runs once per distinct crystal."""
    crystals = []

    def counted(crystal, *args, **options):
        crystals.append(crystal)
        return transfer(crystal, *args, **options)

    transfer = elements.crystal_transfer
    monkeypatch.setattr(elements, "crystal_transfer", counted)
    assert search(GHZ_SEARCH)
    assert len(crystals) == len(set(crystals)) == 12


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


def field_by_field_decode(layout, key):
    """The occupation tuple of ``key``, one field at a time."""
    width, mask = layout.width, layout.mask
    counts = [(label, key >> i * width & mask) for i, label in enumerate(layout.labels)]
    return tuple((label, n) for label, n in counts if n)


@settings(max_examples=200, deadline=None)
@given(st.lists(packed_labels, min_size=1, max_size=8), st.integers(1, 30), st.data())
def test_decode_equals_field_by_field_decode(reach_labels, bound, data):
    reach = {}
    for lab in reach_labels:
        reach.setdefault(lab.path, set()).add(lab.mode)
    layout = KeyLayout(reach, bound)
    fields = st.lists(
        st.integers(0, layout.mask), min_size=len(layout.labels), max_size=len(layout.labels)
    )
    keys = [
        sum(n << i * layout.width for i, n in enumerate(counts))
        for counts in data.draw(st.lists(fields, min_size=1, max_size=6))
    ]
    # Each key twice, in shuffled order: a decode keeps no state between keys.
    for key in data.draw(st.permutations(keys + keys)):
        assert layout.decode(key) == field_by_field_decode(layout, key)


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
