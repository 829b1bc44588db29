"""Selection and scoring on packed keys against the decoded-tuple path.

The search screens each candidate on its compiled key layout and
post-selects on packed keys; the exact efficiency counts on keys too.
Each is checked here against the public ``StateVector`` code it must
equal bit for bit: ``post_select(run(exp), exp.detectors)``, ``_matches``
and ``occupation_photons``.
"""

import importlib
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spdcsim.analysis import _monomial_terms, efficiency_simulated, fidelity, schmidt_rank_vector
from spdcsim.elements import Crystal, Misalignment, ModeShifter, MultimodeCrystal, PhaseShifter, Relabel
from spdcsim.experiment import (
    Experiment,
    _matches,
    compile_run,
    nfold_rule,
    post_select,
    post_select_keys,
    run,
    run_keys,
    sector_rule,
)
from spdcsim.fock import KeyLayout, ModeLabel, occupation_photons
from spdcsim.search import (
    FidelityTarget,
    SrvTarget,
    evaluate,
    random_setup,
    search_with_stats,
)

from conftest import CORPUS, load_experiment
from test_search import MIXED_CONFIG, pol_config

# The package re-exports the function ``search`` under the module's name.
search_module = importlib.import_module("spdcsim.search")

CONFIGS = {"ghz4": pol_config(), "mixed": MIXED_CONFIG}


def unscreened_score(exp, target):
    """``evaluate`` without the screen: simulate, decode, select, score."""
    selected = post_select(run(exp), exp.detectors)
    if selected.state.is_zero() or selected.success_weight == 0.0:
        return 0.0
    if isinstance(target, FidelityTarget):
        return fidelity(selected.state, target.state)
    try:
        srv = schmidt_rank_vector(selected.state, target.parties)
    except ValueError:
        return 0.0
    return 1.0 if srv.ranks == target.ranks else 0.0


def screens_out(exp, target):
    layout = compile_run(exp)[1]
    return not search_module._can_click(layout, exp.detectors, target)


def drawn(name, seed, trial):
    config = CONFIGS[name]
    return random_setup(replace(config, seed=seed), trial), config.target


def assert_selection_on_keys_equals_post_select(exp):
    elements, layout = compile_run(exp)
    packed = post_select_keys(run_keys(exp, elements, layout), layout, exp.detectors)
    reference = post_select(run(exp), exp.detectors)
    assert packed.state.serialize() == reference.state.serialize()
    assert list(packed.state.terms) == list(reference.state.terms)
    assert repr(packed.success_weight) == repr(reference.success_weight)


# -- packed selection ---------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CONFIGS)), st.integers(0, 2**32 - 1), st.integers(0, 10**6))
def test_packed_selection_equals_post_select_on_drawn_setups(name, seed, trial):
    assert_selection_on_keys_equals_post_select(drawn(name, seed, trial)[0])


@pytest.mark.parametrize("creation_only", [False, True], ids=["full", "creation-only"])
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_packed_selection_equals_post_select_on_the_corpus(path, creation_only):
    exp = replace(load_experiment(path.name), creation_only=creation_only)
    assert_selection_on_keys_equals_post_select(exp)


# -- the n-fold and sector rules on keys ---------------------------------------

PATHS = ("a", "b", "c", "d", "loss#0", "loss#1")


@st.composite
def layouts_and_terms(draw):
    """A layout over some of ``PATHS`` (blocks with gaps included), and
    occupations on its labels within its bound."""
    modes = {}
    for path in PATHS:
        reach = draw(st.sets(st.integers(-1, 2), max_size=3))
        if reach:
            modes[path] = reach
    bound = draw(st.integers(1, 8))
    layout = KeyLayout(modes, bound)
    occupations = []
    for _ in range(draw(st.integers(1, 8))):
        counts = {}
        total = 0
        for label in draw(st.lists(st.sampled_from(layout.labels), max_size=bound)) if layout.labels else []:
            if total < bound:
                counts[label] = counts.get(label, 0) + 1
                total += 1
        occupations.append(tuple(sorted(counts.items())))
    detectors = draw(st.lists(st.sampled_from(("a", "b", "c", "d", "e")), unique=True, max_size=5))
    return layout, occupations, detectors


@settings(max_examples=300, deadline=None)
@given(layouts_and_terms())
def test_packed_rules_agree_with_the_tuple_rules(case):
    layout, occupations, detectors = case
    passes = nfold_rule(layout, detectors)
    pattern = {path: 1 for path in detectors}
    for occ in occupations:
        key = layout.encode(occ)
        assert passes(key) == _matches(occ, pattern)
        photons = occupation_photons(occ, include_loss=False)
        for n in range(layout.bound + 1):
            assert sector_rule(layout, n)(key) == (photons == n)


# -- the screen ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_screen_rejects_only_setups_that_score_zero(name):
    # Every distinct setup of the first 1500 trials, hits among them.
    config = CONFIGS[name]
    setups = {}
    for trial in range(1500):
        exp = random_setup(config, trial)
        setups.setdefault(exp.elements, exp)
    rejected = scored = 0
    for exp in setups.values():
        score = unscreened_score(exp, config.target)
        if screens_out(exp, config.target):
            rejected += 1
            assert repr(score) == "0.0", exp
        else:
            scored += score > 0.0
        assert repr(evaluate(exp, config.target)) == repr(score)
    assert rejected and scored


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CONFIGS)), st.integers(0, 2**32 - 1), st.integers(0, 10**6))
def test_screen_is_sound_on_drawn_setups(name, seed, trial):
    exp, target = drawn(name, seed, trial)
    score = unscreened_score(exp, target)
    if screens_out(exp, target):
        assert repr(score) == "0.0"
    assert repr(evaluate(exp, target)) == repr(score)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_screen_is_sound_on_the_corpus(path):
    exp = load_experiment(path.name)
    selected = post_select(run(exp), exp.detectors)
    if selected.state.is_zero():
        # induced_coherence: three detectors, pairs only; nothing passes.
        assert repr(evaluate(exp, SrvTarget(exp.detectors, (1,) * len(exp.detectors)))) == "0.0"
        return
    ranks = schmidt_rank_vector(selected.state, exp.detectors).ranks
    layout = compile_run(exp)[1]
    # The true ranks must pass; any rank above a party's field count fails
    # and scores 0 through the unscreened path too.
    assert not screens_out(exp, SrvTarget(exp.detectors, ranks))
    for i, party in enumerate(exp.detectors):
        fields = layout.blocks[party][2]
        for rank in (fields, fields + 1):
            target = SrvTarget(exp.detectors, ranks[:i] + (rank,) + ranks[i + 1 :])
            assert screens_out(exp, target) == (rank > fields)
            assert repr(evaluate(exp, target)) == repr(unscreened_score(exp, target))


def test_screen_counts_a_setup_whose_detector_no_photon_reaches():
    # No photon reaches a, which has no block, so nothing is evolved.
    pairs = (("b", "c"), ("c", "d"), ("b", "d"))
    exp = Experiment(
        elements=tuple(Crystal(ModeLabel(p, 0), ModeLabel(q, 0), g=0.1) for p, q in pairs),
        detectors=("a", "b", "c", "d"),
    )
    before = search_module._screened
    assert evaluate(exp, FidelityTarget(pol_config().target.state)) == 0.0
    assert search_module._screened == before + 1


@pytest.mark.parametrize("workers", [1, 2])
def test_screened_counts_the_misses_the_screen_rejects(workers):
    config = replace(MIXED_CONFIG, budget=1200)
    hits, stats = search_with_stats(config, workers=workers)
    setups = {}
    for trial in range(config.budget):
        exp = random_setup(config, trial)
        setups.setdefault(exp.elements, exp)
    rejected = sum(screens_out(exp, config.target) for exp in setups.values())
    assert stats.evaluated == len(setups)
    assert stats.screened == rejected
    assert 0 < stats.screened < stats.evaluated
    assert stats.record()["screened"] == stats.screened
    assert sum(stats.histogram) == stats.evaluated


# -- efficiency on keys ----------------------------------------------------------


def tuple_weights(weighted, detectors):
    """``(valid, total)`` by the decoded-tuple rules, summed in term order."""
    n = len(detectors)
    pattern = {path: 1 for path in detectors}
    valid = total = 0
    for occ, weight in weighted:
        if occupation_photons(occ, include_loss=False) != n:
            continue
        total += weight
        if _matches(occ, pattern):
            valid += weight
    return valid, total


def tuple_efficiency(exp):
    """``efficiency_simulated`` counted on decoded occupations."""
    exact = all(isinstance(e, (Crystal, MultimodeCrystal, ModeShifter, Relabel)) for e in exp.elements)
    if exact:
        elements, layout = compile_run(exp)
        terms = _monomial_terms(exp, elements, layout)
        weighted = []
        for key, coeff in terms.items():
            occ = layout.decode(key)
            weighted.append((occ, coeff * coeff * math.prod(math.factorial(n) for _, n in occ)))
    else:
        full = run(replace(exp, creation_only=True))
        weighted = [(occ, abs(amp) ** 2) for occ, amp in full.terms.items()]
    valid, total = tuple_weights(weighted, exp.detectors)
    if total == 0:
        return None
    return Fraction(valid, total) if exact else valid / total


_LABELS = [ModeLabel(p, m) for p in "abcd" for m in (0, 1)]

_elements = st.one_of(
    st.builds(
        lambda a, b, g: Crystal(a, b, g=g),
        st.sampled_from(_LABELS),
        st.sampled_from(_LABELS),
        st.sampled_from((0.1, 0.05, 0.0731)),
    ),
    st.builds(lambda p, d: ModeShifter(p, d), st.sampled_from("abcd"), st.sampled_from((-1, 1))),
    st.builds(lambda p, q: Relabel(p, q), st.sampled_from("abcd"), st.sampled_from("abcd")),
    st.builds(lambda p, t: Misalignment(p, t), st.sampled_from("abcd"), st.sampled_from((0.0, 0.3, 0.8, 1.0))),
    st.builds(lambda p, phi: PhaseShifter(p, phi), st.sampled_from("abcd"), st.sampled_from((0.0, 0.7, math.pi))),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_elements, min_size=1, max_size=6), st.sampled_from((("a", "b"), ("a", "b", "c", "d"), ("b", "d"))))
def test_efficiency_on_keys_equals_the_tuple_count(elements, detectors):
    exp = Experiment(elements=tuple(elements), detectors=detectors)
    reference = tuple_efficiency(exp)
    if reference is None:
        with pytest.raises(ValueError):
            efficiency_simulated(exp)
        return
    value = efficiency_simulated(exp)
    assert type(value) is type(reference)
    assert repr(value) == repr(reference)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_efficiency_on_keys_equals_the_tuple_count(path):
    exp = load_experiment(path.name)
    reference = tuple_efficiency(exp)
    if reference is None:
        with pytest.raises(ValueError):
            efficiency_simulated(exp)
    else:
        assert repr(efficiency_simulated(exp)) == repr(reference)
