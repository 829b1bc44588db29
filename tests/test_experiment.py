import copy
import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from spdcsim.analysis import fidelity, ghz_layout, ghz_target, schmidt_rank_vector
from spdcsim.elements import Crystal, Misalignment, ModeShifter, MultimodeCrystal, PhaseShifter, Relabel
from spdcsim.elements import apply_element, compile_layout, crystal_pairs, element_step, resolve_loss_paths
from spdcsim.experiment import (
    Experiment,
    UndeclaredPathError,
    compile_run,
    post_select,
    post_select_pattern,
    run,
    run_keys,
    success_fraction,
    validate_paths,
    with_uniform_misalignment,
)
from spdcsim.fock import LOSS_PREFIX, PRUNE_EPSILON, KeyLayout, ModeLabel, StateVector
from spdcsim.fock import make_occupation, occupation_photons, vacuum

from conftest import CORPUS, basis, label, load_experiment


def two_matching_polarization_layout(g=0.1):
    return load_experiment("ghz4_polarization.exp")


def test_empty_experiment_gives_vacuum():
    exp = Experiment(elements=(), detectors=("a", "b"))
    assert run(exp) == vacuum()


def test_shared_path_pair_first_order():
    exp = load_experiment("induced_coherence.exp")
    g = 0.1
    # Leading order: one pair, amplitude g from either source.
    leading = run(replace(exp, creation_only=True))
    assert leading.amplitude({label("a:0"): 1, label("d:0"): 1}) == pytest.approx(g, abs=1e-15)
    assert leading.amplitude({label("c:0"): 1, label("d:0"): 1}) == pytest.approx(g, abs=1e-15)
    # Full expansion: the same pair terms with O(g^2) corrections; the
    # shared-path source picks up an occupation-dependent correction.
    state = run(exp)
    assert state.amplitude({label("a:0"): 1, label("d:0"): 1}) == pytest.approx(g, rel=2e-2)
    assert state.amplitude({label("c:0"): 1, label("d:0"): 1}) == pytest.approx(g, rel=2e-2)


def test_detector_validation():
    with pytest.raises(ValueError):
        Experiment(elements=(), detectors=("a", "a"))
    with pytest.raises(ValueError):
        Experiment(elements=(), detectors=("a", "loss#0"))


def test_strict_mode_flags_unknown_paths():
    exp = Experiment(
        elements=(ModeShifter("zz", 1),),
        detectors=("a", "b"),
    )
    with pytest.raises(UndeclaredPathError):
        validate_paths(exp)
    run(exp)  # run checks nothing: paths appear on first use


#: The path-valued fields of each passive element kind, which the path
#: check read before it read the reach steps.
PATH_FIELDS = {
    ModeShifter: ("path",),
    PhaseShifter: ("path",),
    Misalignment: ("path",),
    Relabel: ("source", "target"),
}


def field_table_validate_paths(exp):
    """The path check read from :data:`PATH_FIELDS`: the oracle of
    ``validate_paths``."""
    known = set(exp.detectors)
    for element in exp.elements:
        if isinstance(element, (Crystal, MultimodeCrystal)):
            known.update(lab.path for pair in crystal_pairs(element) for lab in pair)
    for element in exp.elements:
        if isinstance(element, (Crystal, MultimodeCrystal)):
            continue
        referenced = {getattr(element, field) for field in PATH_FIELDS[type(element)]}
        unknown = {p for p in referenced if p not in known and not p.startswith(LOSS_PREFIX)}
        if unknown:
            raise UndeclaredPathError(f"element {element!r} references undeclared path(s) {sorted(unknown)}")


def path_check(check, exp):
    """The ``UndeclaredPathError`` text of ``check(exp)``, or ``None``."""
    try:
        check(exp)
    except UndeclaredPathError as exc:
        return str(exc)
    return None


# Detectors a and b; a crystal emits into c; y and z are declared nowhere.
# Each case: the element, and whether the check raises.
PATH_CASES = {
    "crystal": (Crystal(label("z:0"), label("a:0")), False),
    "multimode": (MultimodeCrystal("z", "b", (0, 1)), False),
    "shift": (ModeShifter("c", 1), False),
    "shift-undeclared": (ModeShifter("z", 1), True),
    "phase": (PhaseShifter("a", 0.3), False),
    "phase-undeclared": (PhaseShifter("z", 0.3), True),
    "misalign-T0": (Misalignment("a", 0.0, loss="loss#0"), False),
    "misalign-T0-undeclared": (Misalignment("z", 0.0, loss="loss#0"), True),
    "misalign-T1": (Misalignment("c", 1.0, loss="loss#0"), False),
    "misalign-T1-undeclared": (Misalignment("z", 1.0, loss="loss#0"), True),
    "misalign-undeclared": (Misalignment("z", 0.5, loss="loss#3"), True),
    "misalign-unresolved": (Misalignment("b", 0.5), False),
    "misalign-unresolved-undeclared": (Misalignment("z", 0.5), True),
    "relabel-onto-detector": (Relabel("c", "a"), False),
    "relabel-undeclared-onto-detector": (Relabel("z", "a"), True),
    "relabel-onto-crystal-path": (Relabel("a", "c"), False),
    "relabel-onto-loss-path": (Relabel("b", "loss#2"), False),
    "relabel-onto-undeclared": (Relabel("a", "z"), True),
    "relabel-undeclared-onto-undeclared": (Relabel("y", "z"), True),
}


@pytest.mark.parametrize("element, raises", PATH_CASES.values(), ids=PATH_CASES.keys())
def test_the_path_check_reads_the_reach_steps_as_the_field_table(element, raises):
    exp = Experiment(elements=(Crystal(label("c:0"), label("a:0")), element), detectors=("a", "b"))
    got = path_check(validate_paths, exp)
    assert got == path_check(field_table_validate_paths, exp)
    assert (got is not None) == raises
    if raises:
        # The element as given: an unresolved misalignment shows loss=None.
        assert got.startswith(f"element {element!r} references undeclared path(s)")


CHECK_PATHS = ("a", "b", "c", "z")
check_labels = st.builds(ModeLabel, st.sampled_from(CHECK_PATHS), st.integers(0, 1))
check_elements = st.one_of(
    st.builds(Crystal, check_labels, check_labels),
    st.builds(MultimodeCrystal, st.sampled_from(CHECK_PATHS), st.sampled_from(CHECK_PATHS), st.just((0, 1))),
    st.builds(ModeShifter, st.sampled_from(CHECK_PATHS), st.sampled_from((-1, 1))),
    st.builds(PhaseShifter, st.sampled_from(CHECK_PATHS), st.just(0.4)),
    st.builds(
        Misalignment, st.sampled_from(CHECK_PATHS), st.sampled_from((0.0, 0.6, 1.0)), st.sampled_from((None, "loss#5"))
    ),
    st.builds(Relabel, st.sampled_from(CHECK_PATHS), st.sampled_from(CHECK_PATHS + ("loss#1",))),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(check_elements, max_size=5))
def test_the_path_check_equals_the_field_table_on_drawn_setups(elements):
    exp = Experiment(elements=tuple(elements), detectors=("a", "b"))
    assert path_check(validate_paths, exp) == path_check(field_table_validate_paths, exp)


def test_four_photon_sector_has_all_ten_emission_patterns():
    exp = replace(two_matching_polarization_layout(), creation_only=True)
    four = run(exp).photon_sector(4)
    g2 = 0.1 * 0.1
    assert len(four) == 10
    # both coincidence patterns
    assert four.amplitude({label(f"{p}:0"): 1 for p in "abcd"}) == pytest.approx(g2, abs=1e-15)
    assert four.amplitude({label(f"{p}:1"): 1 for p in "abcd"}) == pytest.approx(g2, abs=1e-15)
    # the four double emissions carry the same monomial amplitude
    for pair, mode in ((("a", "c"), 0), (("b", "d"), 0), (("a", "b"), 1), (("c", "d"), 1)):
        occ = {ModeLabel(pair[0], mode): 2, ModeLabel(pair[1], mode): 2}
        assert four.amplitude(occ) == pytest.approx(g2, abs=1e-15)


def test_post_select_two_matching_layout():
    exp = two_matching_polarization_layout()
    selected = post_select(run(exp), exp.detectors)
    assert len(selected.state) == 2
    assert selected.state.norm() == pytest.approx(1.0)
    amp_h = selected.state.amplitude({label(f"{p}:0"): 1 for p in "abcd"})
    amp_v = selected.state.amplitude({label(f"{p}:1"): 1 for p in "abcd"})
    assert amp_h == pytest.approx(amp_v)


def test_post_select_rejects_double_emission_terms():
    state = basis({"a:0": 2, "c:0": 2})
    result = post_select(state, ("a", "b", "c", "d"))
    assert result.state.is_zero()
    assert result.success_weight == 0.0


def test_post_select_rejects_loss_photons():
    state = basis("a:0 b:0") + basis({"a:0": 1, "loss#0:0": 1}, 0.5)
    result = post_select(state, ("a", "b"))
    assert len(result.state) == 1
    assert result.success_weight == pytest.approx(1.0)


def test_post_select_pattern_accepts_multi_photon_counts():
    state = basis({"a:0": 2, "b:0": 2}, 0.6) + basis("a:0 b:0", 0.8)
    result = post_select_pattern(state, {"a": 2, "b": 2})
    assert len(result.state) == 1
    assert result.success_weight == pytest.approx(0.36)


def test_experiment_rejects_repeated_detectors():
    with pytest.raises(ValueError, match="detectors must be distinct"):
        Experiment(detectors=("a", "a"))


def test_post_select_rejects_repeated_detectors():
    exp = two_matching_polarization_layout()
    with pytest.raises(ValueError, match="detectors must be distinct"):
        post_select(run(exp), ("a", "a"))


SELECTION_PATHS = ("a", "b", "c", "loss#0")
selection_labels = st.builds(ModeLabel, st.sampled_from(SELECTION_PATHS), st.integers(-1, 1))
amplitudes = st.complex_numbers(min_magnitude=1e-3, max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from("abc"), unique=True, max_size=3), st.data())
def test_post_select_is_the_one_photon_per_detector_pattern(detectors, data):
    # Random terms (multi-photon fields, loss and off-detector paths) next
    # to one-photon-per-detector terms, some with a stray extra photon.
    counts = st.dictionaries(selection_labels, st.integers(1, 3), max_size=4)
    hits = st.tuples(
        st.lists(st.integers(-1, 1), min_size=len(detectors), max_size=len(detectors)),
        st.dictionaries(selection_labels, st.integers(1, 2), max_size=1),
    ).map(
        lambda drawn: {**{ModeLabel(p, m): 1 for p, m in zip(detectors, drawn[0])}, **drawn[1]}
    )
    patterns = data.draw(st.lists(st.one_of(counts, hits), max_size=8))
    amps = data.draw(st.lists(amplitudes, min_size=len(patterns), max_size=len(patterns)))
    state = StateVector({make_occupation(c): amp for c, amp in zip(patterns, amps)})
    direct = post_select(state, detectors)
    pattern = post_select_pattern(state, {p: 1 for p in detectors})
    assert list(direct.state.terms.items()) == list(pattern.state.terms.items())
    assert direct.success_weight == pattern.success_weight


LADDER = ((4, 2), (4, 3), (6, 2), (6, 3), (6, 4), (6, 5), (8, 2), (8, 3))
CORPUS_EXPERIMENTS = [pytest.param(load_experiment(path.name), id=path.stem) for path in CORPUS]
RUN_CASES = CORPUS_EXPERIMENTS + [pytest.param(ghz_layout(n, d), id=f"ghz_layout_{n}_{d}") for n, d in LADDER]


def items_text(state):
    """Each term and the ``repr`` of its amplitude, in dict order."""
    return repr(list(state.terms.items()))


@pytest.mark.parametrize("exp", RUN_CASES)
def test_a_run_state_reads_as_its_eagerly_decoded_keys(exp):
    elements, layout = compile_run(exp)
    eager = {layout.decode(key): amp for key, amp in run_keys(exp, elements, layout).items()}
    state = run(exp)
    assert len(state) == len(eager)
    assert items_text(state) == repr(list(eager.items()))


@pytest.mark.parametrize("exp", RUN_CASES)
def test_post_select_on_a_run_state_equals_it_on_the_decoded_state(exp):
    packed = post_select(run(exp), exp.detectors)
    decoded = StateVector(dict(run(exp).terms))
    for oracle in (post_select(decoded, exp.detectors), post_select_pattern(decoded, {p: 1 for p in exp.detectors})):
        assert items_text(packed.state) == items_text(oracle.state)
        assert float(packed.success_weight).hex() == float(oracle.success_weight).hex()


@pytest.mark.parametrize("exp", CORPUS_EXPERIMENTS)
def test_success_fraction_counts_the_sector_of_the_decoded_terms(exp):
    full = run(exp)
    selected = post_select(full, exp.detectors)
    n = len(exp.detectors)
    try:
        got = success_fraction(full, selected, n)
    except ValueError:
        got = None
    denom = sum(abs(amp) ** 2 for occ, amp in full.terms.items() if occupation_photons(occ, include_loss=False) == n)
    if denom == 0.0:
        assert got is None
    else:
        assert got.hex() == (selected.success_weight / denom).hex()
        assert success_fraction(StateVector(dict(full.terms)), selected, n).hex() == got.hex()


def test_a_run_state_decodes_only_what_is_read(monkeypatch):
    decoded = []
    decode = KeyLayout.decode

    def counted(layout, key):
        decoded.append(key)
        return decode(layout, key)

    monkeypatch.setattr(KeyLayout, "decode", counted)
    for path in CORPUS:
        exp = load_experiment(path.name)
        n = len(exp.detectors)
        state = run(exp)
        size = len(state)
        selected = post_select(state, exp.detectors)
        if not selected.state.is_zero():
            success_fraction(state, selected, n)
            fidelity(selected.state, ghz_target(n, 2, paths=exp.detectors))
            schmidt_rank_vector(selected.state, exp.detectors)
        assert decoded == []
        selected.state.serialize()
        assert len(decoded) == len(selected.state) < size
        state.serialize()
        assert len(decoded) == len(selected.state) + size
        decoded.clear()


def eagerly_applied(state, element, *, order, creation_only, limit):
    """``apply_element`` with every key decoded as soon as the element
    is applied."""
    labels = {lab for occ in state.terms for lab, _ in occ}
    most = max(map(occupation_photons, state.terms), default=0)
    layout = compile_layout((element,), max(most, limit) + 2 * order, labels)
    keys = {layout.encode(occ): amp for occ, amp in state.terms.items()}
    keys = element_step(element, layout, order=order, creation_only=creation_only, limit=limit)(keys)
    return StateVector({layout.decode(key): amp for key, amp in keys.items()})


@pytest.mark.parametrize("exp", CORPUS_EXPERIMENTS)
def test_an_applied_element_decodes_only_what_is_read(exp, monkeypatch):
    decoded = []
    decode = KeyLayout.decode

    def counted(layout, key):
        decoded.append(key)
        return decode(layout, key)

    monkeypatch.setattr(KeyLayout, "decode", counted)
    options = dict(order=exp.expansion_order, creation_only=exp.creation_only, limit=2 * exp.pair_budget)
    state = vacuum()
    for element in resolve_loss_paths(exp.elements):
        eager = eagerly_applied(state, element, **options)
        decoded.clear()
        state = apply_element(state, element, **options)
        assert len(state) == len(eager)
        assert not state.is_zero()
        assert decoded == []
        assert items_text(state) == items_text(eager)
        assert len(decoded) == len(eager)


def assert_keeps_its_producers_prune(state):
    """``state``'s packed amplitudes are all ``complex``, finite and above
    ``PRUNE_EPSILON``, as ``StateVector._from_keys`` stores them unchecked."""
    keys, _ = state._packed
    for amp in keys.values():
        assert type(amp) is complex and PRUNE_EPSILON < abs(amp) < math.inf, amp


def assert_every_packed_state_is_pruned(exp):
    """Every state that ``run``, both post-selections and ``apply_element``
    (the elements one at a time, from vacuum) build for ``exp``."""
    state = run(exp)
    assert_keeps_its_producers_prune(state)
    assert_keeps_its_producers_prune(post_select(state, exp.detectors).state)
    assert_keeps_its_producers_prune(post_select_pattern(state, {p: 1 for p in exp.detectors}).state)
    options = dict(order=exp.expansion_order, creation_only=exp.creation_only, limit=2 * exp.pair_budget)
    state = vacuum()
    for element in resolve_loss_paths(exp.elements):
        state = apply_element(state, element, **options)
        assert_keeps_its_producers_prune(state)


@pytest.mark.parametrize("exp", RUN_CASES)
def test_packed_states_keep_the_prune_of_their_producers(exp):
    assert_every_packed_state_is_pruned(exp)


PRUNE_PATHS = ("a", "b", "c")
prune_labels = st.builds(ModeLabel, st.sampled_from(PRUNE_PATHS), st.integers(0, 1))
# All six kinds on three paths and two modes, with phases that cancel
# amplitudes, so that some terms fall to or below PRUNE_EPSILON.
setup_elements = st.one_of(
    st.builds(Crystal, prune_labels, prune_labels, st.sampled_from((0.1, 0.05))),
    st.builds(
        MultimodeCrystal,
        st.sampled_from(PRUNE_PATHS),
        st.sampled_from(PRUNE_PATHS),
        st.sampled_from(((0, 1), (1,), (1, 0, 2))),
        st.sampled_from((0.1, 0.07)),
    ),
    st.builds(ModeShifter, st.sampled_from(PRUNE_PATHS), st.sampled_from((-1, 1))),
    st.builds(PhaseShifter, st.sampled_from(PRUNE_PATHS), st.sampled_from((math.pi / 2, math.pi, 0.3))),
    st.builds(Misalignment, st.sampled_from(PRUNE_PATHS), st.sampled_from((0.0, 0.6, 1.0))),
    st.builds(Relabel, st.sampled_from(PRUNE_PATHS), st.sampled_from(PRUNE_PATHS)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(setup_elements, min_size=1, max_size=6),
    st.sampled_from((("a", "b"), ("a", "b", "c"))),
    st.booleans(),
)
# A pair that the phase of pi cancels to about 1e-17, below PRUNE_EPSILON.
@example([Crystal(label("a:0"), label("b:0")), PhaseShifter("a", math.pi), Crystal(label("a:0"), label("b:0"))], ("a", "b"), True)
def test_packed_states_of_drawn_setups_keep_the_prune_of_their_producers(elements, detectors, creation_only):
    assert_every_packed_state_is_pruned(
        Experiment(elements=tuple(elements), detectors=detectors, creation_only=creation_only)
    )


@pytest.mark.parametrize("selected", [False, True], ids=["run", "post-selected"])
def test_a_packed_state_pickles_as_its_terms(selected):
    exp = load_experiment("ghz6_5dim_oam.exp")
    state = run(exp)
    if selected:
        state = post_select(state, exp.detectors).state
    decoded = StateVector(dict(state.terms))
    assert len(pickle.dumps(state)) == len(pickle.dumps(decoded))
    for copied in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
        assert copied == state
        assert items_text(copied) == items_text(state)


def test_a_run_state_pickles_and_deep_copies():
    exp = load_experiment("ghz6_5dim_oam.exp")
    want = run(exp)
    for copied in (pickle.loads(pickle.dumps(run(exp))), copy.deepcopy(run(exp))):
        assert items_text(copied) == items_text(want)
        assert post_select(copied, exp.detectors) == post_select(want, exp.detectors)


def test_post_selection_is_idempotent():
    exp = two_matching_polarization_layout()
    once = post_select(run(exp), exp.detectors)
    twice = post_select(once.state, exp.detectors)
    assert twice.state == once.state
    assert twice.success_weight == pytest.approx(1.0)


def test_single_crystal_success_fraction_is_one():
    exp = Experiment(
        elements=(Crystal(label("a:0"), label("b:0"), g=0.1),),
        detectors=("a", "b"),
        max_pairs=1,
    )
    full = run(exp)
    selected = post_select(full, exp.detectors)
    assert success_fraction(full, selected, 2) == pytest.approx(1.0)


def test_success_fraction_matches_rational_oracle():
    # Exhaustive pattern count: 10 equally weighted four-photon emission
    # patterns, 2 of them valid.
    exp = replace(two_matching_polarization_layout(), creation_only=True)
    full = run(exp)
    selected = post_select(full, exp.detectors)
    assert success_fraction(full, selected, 4) == pytest.approx(0.2, abs=1e-12)


def test_success_fraction_requires_nonempty_sector():
    with pytest.raises(ValueError):
        success_fraction(vacuum(), post_select(vacuum(), ("a",)), 2)


def test_misalignment_replacement_helper():
    exp = with_uniform_misalignment(two_matching_polarization_layout(), 0.5)
    values = {e.transmissivity for e in exp.elements if isinstance(e, Misalignment)}
    assert values == {0.5}


def test_loss_paths_do_not_collide_with_detectors():
    exp = with_uniform_misalignment(two_matching_polarization_layout(), 0.9)
    state = run(exp)
    loss_paths = {p for p in state.paths() if p.startswith("loss#")}
    assert loss_paths == {"loss#0", "loss#1", "loss#2", "loss#3"}


def test_relabel_inside_experiment():
    exp = Experiment(
        elements=(
            Crystal(label("a:0"), label("b:0"), g=0.1),
            Relabel("b", "d"),
            Crystal(label("c:0"), label("d:0"), g=0.1),
        ),
        detectors=("a", "c", "d"),
        max_pairs=1,
        creation_only=True,
    )
    state = run(exp)
    assert state.amplitude({label("a:0"): 1, label("d:0"): 1}) == pytest.approx(0.1, abs=1e-15)
    assert state.amplitude({label("c:0"): 1, label("d:0"): 1}) == pytest.approx(0.1, abs=1e-15)


def test_post_selection_invariant_under_commuting_element_swap():
    # Crystals on disjoint path sets may be listed in either order.
    exp = two_matching_polarization_layout()
    elements = list(exp.elements)
    elements[0], elements[1] = elements[1], elements[0]
    swapped = replace(exp, elements=tuple(elements))
    one = post_select(run(exp), exp.detectors)
    other = post_select(run(swapped), exp.detectors)
    assert (one.state - other.state).is_zero()
    assert one.success_weight == pytest.approx(other.success_weight, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.02, max_value=0.1))
def test_success_weight_scales_with_coupling(g):
    # In the pure emission expansion every selected amplitude is a degree
    # max_pairs monomial, so doubling all couplings scales the weight by
    # 2^(2 * max_pairs) exactly.
    def layout(gv):
        exp = two_matching_polarization_layout()
        elements = tuple(
            replace(e, g=gv) if isinstance(e, Crystal) else e for e in exp.elements
        )
        return replace(exp, elements=elements, creation_only=True)

    weight = post_select(run(layout(g)), ("a", "b", "c", "d")).success_weight
    doubled = post_select(run(layout(2 * g)), ("a", "b", "c", "d")).success_weight
    assert doubled == pytest.approx(16 * weight, rel=1e-12)
