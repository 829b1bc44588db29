import copy
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from spdcsim.analysis import fidelity, ghz_layout, ghz_target, schmidt_rank_vector
from spdcsim.elements import Crystal, Misalignment, ModeShifter, Relabel
from spdcsim.elements import apply_element, compile_layout, element_step, resolve_loss_paths
from spdcsim.experiment import (
    Experiment,
    UndeclaredPathError,
    compile_run,
    nfold_rule,
    post_select,
    post_select_pattern,
    run,
    run_keys,
    success_fraction,
    with_uniform_misalignment,
)
from spdcsim.fock import KeyLayout, ModeLabel, StateVector, make_occupation, occupation_photons, vacuum

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
        run(exp, strict=True)
    run(exp)  # non-strict: paths appear on first use


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


def test_nfold_rule_rejects_repeated_detectors():
    _, layout = compile_run(two_matching_polarization_layout())
    with pytest.raises(ValueError, match="detectors must be distinct"):
        nfold_rule(layout, ("a", "a"))


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
