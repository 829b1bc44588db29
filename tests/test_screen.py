"""Selection and scoring on packed keys against the decoded-tuple path.

The search screens each candidate on the mode reach folded from its
drawn key, then post-selects and scores it on packed keys; the exact
efficiency counts on keys too.  Each is checked here against what it
must equal bit for bit: the tuple-level selection and scores of
``tuple_oracle`` on decoded terms, ``post_select(run(exp),
exp.detectors)`` and ``occupation_photons``; the reach fold is checked
against the key layout it builds and a set-based static pass of its own.
"""

import functools
import importlib
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from spdcsim.analysis import _monomial_terms, efficiency_simulated, fidelity, ghz_target, schmidt_rank_vector, w_target
from spdcsim.elements import (
    Crystal,
    Misalignment,
    ModeShifter,
    MultimodeCrystal,
    PhaseShifter,
    Relabel,
    compile_layout,
    crystal_pairs,
    mode_reach,
    reach_step,
    resolve_loss_paths,
)
from spdcsim.experiment import (
    Experiment,
    compile_run,
    pattern_rule,
    post_select,
    post_select_pattern,
    run,
    run_keys,
    sector_rule,
)
from spdcsim.fock import KeyLayout, ModeLabel, StateVector, normalized_terms, occupation_photons
from spdcsim.search import (
    ElementPool,
    FidelityTarget,
    SrvTarget,
    evaluate,
    random_setup,
    search_with_stats,
)

import tuple_oracle
from conftest import CORPUS, basis, load_experiment
from test_search import MIXED_CONFIG, element_table, pol_config, span_keys

# The package re-exports the function ``search`` under the module's name.
search_module = importlib.import_module("spdcsim.search")

CONFIGS = {"ghz4": pol_config(), "mixed": MIXED_CONFIG}


def unscreened_score(exp, target):
    """``evaluate`` without the screen: simulate, decode, select, score."""
    return decoded_score(run(exp), exp.detectors, target)


def decoded_score(full, detectors, target):
    """The score of the state ``full`` on decoded occupations
    (``tuple_oracle``): the n-fold pattern, then ``fidelity`` or
    ``schmidt_rank_vector``."""
    selected = tuple_oracle.post_select_pattern(full, {path: 1 for path in detectors})
    if selected.state.is_zero() or selected.success_weight == 0.0:
        return 0.0
    if isinstance(target, FidelityTarget):
        return tuple_oracle.fidelity(selected.state, target.state)
    try:
        srv = tuple_oracle.schmidt_rank_vector(selected.state, target.parties)
    except ValueError:
        return 0.0
    return 1.0 if srv.ranks == target.ranks else 0.0


def unfolded_compile_run(exp):
    """``compile_run`` without the shift fold: the resolved elements on
    their own key layout, which ``evaluate`` and the search's screen read."""
    elements = resolve_loss_paths(exp.elements)
    return elements, compile_layout(elements, 2 * exp.pair_budget + 2 * exp.expansion_order)


def screens_out(exp, target):
    reach = mode_reach(map(reach_step, resolve_loss_paths(exp.elements)))
    return not search_module._can_click(reach, exp.detectors, target)


def drawn(name, seed, trial):
    config = CONFIGS[name]
    return random_setup(replace(config, seed=seed), trial), config.target


def key_score(exp, target):
    """The search's score of ``exp`` on packed keys, unscreened: compiled
    afresh over the reach of its resolved elements."""
    elements = resolve_loss_paths(exp.elements)
    compiled = search_module._compile(exp, mode_reach(map(reach_step, elements)), target)
    return search_module._score(compiled, elements)


def assert_selection_on_keys_equals_post_select(exp):
    # The n-fold rule on keys, then the normalization ``_score`` makes.
    elements, layout = compile_run(exp)
    passes = pattern_rule(layout, dict.fromkeys(exp.detectors, 1))
    selected = {key: amp for key, amp in run_keys(exp, elements, layout).items() if passes(key)}
    packed = StateVector({layout.decode(key): amp for key, amp in normalized_terms(selected).items()})
    reference = post_select(run(exp), exp.detectors)
    assert packed.serialize() == reference.state.serialize()
    assert list(packed.terms) == list(reference.state.terms)
    assert repr(sum(abs(amp) ** 2 for amp in selected.values())) == repr(reference.success_weight)


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


# -- scores on keys -------------------------------------------------------------

# Each pool's own target, and targets of the other kind: GHZ(4,3) has
# terms in mode 2, which no crystal-pool setup reaches, and the pair
# (a, e) holds a party no setup detects.
SCORE_TARGETS = {
    "ghz4": (
        pol_config().target,
        FidelityTarget(ghz_target(4, 3)),
        FidelityTarget(w_target(4)),
        SrvTarget(tuple("abcd"), (2, 2, 2, 2)),
        SrvTarget(("a", "e"), (1, 1)),
    ),
    "mixed": (
        MIXED_CONFIG.target,
        FidelityTarget(ghz_target(4, 2, paths=MIXED_CONFIG.detectors)),
        FidelityTarget(ghz_target(3, 3, paths=("a", "b", "c"))),
        SrvTarget(MIXED_CONFIG.detectors, (1, 2, 2, 2)),
        SrvTarget(("t", "a", "x"), (1, 2, 2)),
    ),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CONFIGS)), st.integers(0, 2**32 - 1), st.integers(0, 10**6))
def test_the_key_score_equals_the_decoded_score_on_drawn_setups(name, seed, trial):
    exp = drawn(name, seed, trial)[0]
    full = run(exp)
    for target in SCORE_TARGETS[name]:
        assert repr(key_score(exp, target)) == repr(decoded_score(full, exp.detectors, target))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_the_key_score_equals_the_decoded_score_on_the_corpus(path):
    exp = load_experiment(path.name)
    full = run(exp)
    selected = post_select(full, exp.detectors).state
    n = len(exp.detectors)
    targets = [SrvTarget((*exp.detectors, "x"), (1,) * (n + 1))]
    if n >= 2:
        targets += [FidelityTarget(ghz_target(n, d, paths=exp.detectors)) for d in (2, 3, 5)]
    if not selected.is_zero():
        ranks = schmidt_rank_vector(selected, exp.detectors).ranks
        targets += [FidelityTarget(selected), SrvTarget(exp.detectors, ranks)]
        targets += [SrvTarget(exp.detectors[::-1], ranks), SrvTarget(exp.detectors[1:], ranks[1:])]
    for target in targets:
        assert repr(key_score(exp, target)) == repr(decoded_score(full, exp.detectors, target))


SCORE_LAYOUT = {path: {0, 1} for path in "abcd"}
SCORE_DETECTORS = tuple("abcd")


def one_per_detector(modes):
    """The occupation of one photon per detector, in the given modes."""
    return tuple((ModeLabel(path, mode), 1) for path, mode in zip(SCORE_DETECTORS, modes))


# Selected terms of one photon per detector, and terms the n-fold rule drops.
score_occupations = st.one_of(
    st.tuples(*(st.integers(0, 1) for _ in SCORE_DETECTORS)).map(one_per_detector),
    st.dictionaries(st.sampled_from(KeyLayout(SCORE_LAYOUT, 1).labels), st.integers(1, 2), max_size=3).map(
        lambda counts: tuple(sorted(counts.items()))
    ),
)
# Amplitudes of every size a run keeps, down to just above the prune.
score_amplitudes = st.one_of(
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.floats(1.0000001e-14, 1e-12).map(complex),
)
SCORE_TERM_TARGETS = (
    FidelityTarget(ghz_target(4, 2)),
    FidelityTarget(ghz_target(4, 3)),
    FidelityTarget(w_target(4)),
    FidelityTarget(
        StateVector({one_per_detector((0,) * 4): 1, one_per_detector((1,) * 4): 0.5j, one_per_detector((0, 1, 0, 1)): -0.25})
    ),
    SrvTarget(SCORE_DETECTORS, (2, 2, 2, 2)),
    SrvTarget(("b", "d"), (2, 1)),
    SrvTarget(("a", "e"), (1, 1)),
)
# The first normalization keeps the last term at 1.0000000000000002e-14;
# the second, by a norm just above 1, drops it.
PRUNED_BY_THE_SECOND_NORMALIZATION = [
    (one_per_detector((0, 0, 0, 0)), 0.894231100748672 + 0.6923948368566255j),
    (one_per_detector((1, 1, 1, 1)), 0.5547554385216404 + 0.17800451596510336j),
    (one_per_detector((0, 1, 0, 1)), 1.2722024508407468e-14 + 0j),
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(score_occupations, score_amplitudes), min_size=1, max_size=8),
    st.sampled_from(SCORE_TERM_TARGETS),
)
@example(PRUNED_BY_THE_SECOND_NORMALIZATION, SCORE_TERM_TARGETS[3])
@example(PRUNED_BY_THE_SECOND_NORMALIZATION, SCORE_TERM_TARGETS[4])
def test_the_key_score_equals_the_decoded_score_on_any_run(terms, target):
    # ``run_keys`` replaced by the drawn terms: the selection, both
    # normalizations and the scoring alone.
    exp = Experiment(detectors=SCORE_DETECTORS)
    compiled = search_module._compile(exp, SCORE_LAYOUT, target)
    packed = {compiled.layout.encode(occ): amp for occ, amp in terms}
    full = StateVector({compiled.layout.decode(key): amp for key, amp in packed.items()})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search_module, "run_keys", lambda exp, elements, layout, steps: packed)
        score = search_module._score(compiled, ())
    assert repr(score) == repr(decoded_score(full, exp.detectors, target))


def test_the_edge_cases_of_the_key_score_are_reached():
    # The second normalization drops a term the first kept.
    state = StateVector(dict(PRUNED_BY_THE_SECOND_NORMALIZATION))
    once = state.normalized()
    assert len(once) == 3 and len(once.normalized()) == 2
    # A target term with a mode outside the layout gets a key below 0.
    exp = Experiment(detectors=SCORE_DETECTORS)
    encoded = search_module._compile(exp, SCORE_LAYOUT, SCORE_TERM_TARGETS[1]).encoded
    assert len(encoded) == 3 and sorted(key < 0 for key in encoded) == [False, False, True]
    # A party no setup detects scores 0 on any selection.
    ghz = dict(PRUNED_BY_THE_SECOND_NORMALIZATION[:2])
    assert decoded_score(StateVector(ghz), SCORE_DETECTORS, SrvTarget(("a", "e"), (1, 1))) == 0.0
    assert search_module._compile(exp, SCORE_LAYOUT, SrvTarget(("a", "e"), (1, 1))).encoded is None


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


#: Every path a drawn layout may hold, and one no layout holds.
ORACLE_PATHS = PATHS + ("e",)
# Counts 0 to 3 on loss paths, on paths a state holds and on paths it lacks.
patterns = st.dictionaries(st.sampled_from(ORACLE_PATHS), st.integers(0, 3), max_size=4)


@settings(max_examples=300, deadline=None)
@given(layouts_and_terms(), patterns)
def test_packed_rules_agree_with_the_tuple_rules(case, pattern):
    layout, occupations, detectors = case
    ones = dict.fromkeys(detectors, 1)
    passes = pattern_rule(layout, ones)
    for occ in occupations:
        key = layout.encode(occ)
        assert passes(key) == tuple_oracle.matches(occ, ones)
        for drawn_pattern in (ones, pattern):
            assert pattern_rule(layout, drawn_pattern)(key) == tuple_oracle.matches(occ, drawn_pattern)
        photons = occupation_photons(occ, include_loss=False)
        for n in range(layout.bound + 1):
            assert sector_rule(layout, n)(key) == (photons == n)


# -- the library's selection and scores against the tuple oracle ---------------

# Parties absent from a state, or repeated, included.
party_lists = st.lists(st.sampled_from(ORACLE_PATHS), max_size=4)
# Target terms on labels a layout may lack, and above its bound.
target_occupations = st.dictionaries(
    st.builds(ModeLabel, st.sampled_from(ORACLE_PATHS), st.integers(-2, 3)), st.integers(1, 3), max_size=4
).map(lambda counts: tuple(sorted(counts.items())))


def outcome(call, *args):
    """What ``call(*args)`` returns, as text: a selection's terms with the
    ``repr`` of each amplitude, in dict order, and its weight; the
    ``repr`` of any other result; or the text of a ``ValueError``."""
    try:
        result = call(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"
    if hasattr(result, "success_weight"):
        return repr((list(result.state.terms.items()), result.success_weight))
    return repr(result)


def assert_library_equals_oracle(state, data, paths):
    """``post_select_pattern``, ``fidelity`` and ``schmidt_rank_vector`` on
    ``state`` and on its drawn selections equal ``tuple_oracle``'s."""
    targets = data.draw(st.lists(st.lists(st.tuples(target_occupations, score_amplitudes), max_size=3), max_size=3))
    targets = [StateVector(dict(terms)) for terms in targets]
    scored = [(state, state)]
    for pattern in data.draw(st.lists(patterns, min_size=1, max_size=3)) + [{path: 1 for path in paths}]:
        assert outcome(post_select_pattern, state, pattern) == outcome(tuple_oracle.post_select_pattern, state, pattern)
        scored.append((post_select_pattern(state, pattern).state, tuple_oracle.post_select_pattern(state, pattern).state))
    for packed, decoded in scored:
        # The state's own terms as a target, with amplitudes of their own.
        terms = data.draw(st.lists(st.sampled_from(list(decoded.terms) or [()]), max_size=3))
        own = StateVector({occ: data.draw(score_amplitudes) for occ in terms})
        for target in targets + [own]:
            assert outcome(fidelity, packed, target) == outcome(tuple_oracle.fidelity, decoded, target)
        for parties in data.draw(st.lists(party_lists, max_size=3)) + [list(paths)]:
            got = outcome(schmidt_rank_vector, packed, parties)
            assert got == outcome(tuple_oracle.schmidt_rank_vector, decoded, parties)


@settings(max_examples=150, deadline=None)
@given(layouts_and_terms(), st.data())
def test_selection_and_scores_equal_the_tuple_oracle_on_any_layout(case, data):
    layout, occupations, detectors = case
    terms = {occ: data.draw(score_amplitudes) for occ in occupations}
    # Packed on the drawn layout, gaps and a bound above the terms' photons
    # included, and packed on a layout of the state's own labels.
    packed = StateVector._from_keys({layout.encode(occ): amp for occ, amp in terms.items()}, layout)
    assert list(packed.terms) == list(terms)
    for state in (packed, StateVector(terms)):
        assert_library_equals_oracle(state, data, detectors)


# Parties of rank 1 with two local states each; a party whose count goes
# from 1 to 2; a state whose term 2 leaves b empty and whose term 3 holds
# two photons in a, so the first fault found depends on the order of the
# check.
EDGE_STATES = {
    "product": basis("a:0 b:0", 0.6) + basis("a:0 b:1", 0.3j) + basis("a:1 b:0", 0.4) + basis("a:1 b:1", 0.2j),
    "varying": basis("a:0 b:0") + basis({"a:0": 2, "b:1": 1}, 0.5),
    "two-faults": basis("a:0 b:0") + basis("a:1 c:0", 0.5) + basis({"a:0": 2, "b:0": 1}, 0.25),
}


@pytest.mark.parametrize("state", EDGE_STATES.values(), ids=EDGE_STATES)
def test_ranks_equal_the_tuple_oracle_on_edge_states(state):
    for parties in (["a"], ["b"], ["a", "b"], ["b", "a"]):
        assert outcome(schmidt_rank_vector, state, parties) == outcome(tuple_oracle.schmidt_rank_vector, state, parties)


@functools.cache
def corpus_run(path):
    exp = load_experiment(path.name)
    return exp, run(exp)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CORPUS), st.data())
def test_selection_and_scores_equal_the_tuple_oracle_on_the_corpus(path, data):
    exp, state = corpus_run(path)
    assert_library_equals_oracle(state, data, exp.detectors)
    selected = post_select(state, exp.detectors).state
    n = len(exp.detectors)
    for target in [ghz_target(n, d, paths=exp.detectors) for d in (2, 3)] + [selected]:
        assert outcome(fidelity, selected, target) == outcome(tuple_oracle.fidelity, StateVector(dict(selected.terms)), target)


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
    layout = unfolded_compile_run(exp)[1]
    # The true ranks must pass; any rank above a party's field count fails
    # and scores 0 through the unscreened path too.
    assert not screens_out(exp, SrvTarget(exp.detectors, ranks))
    for i, party in enumerate(exp.detectors):
        fields = layout.blocks[party][2]
        for rank in (fields, fields + 1):
            target = SrvTarget(exp.detectors, ranks[:i] + (rank,) + ranks[i + 1 :])
            assert screens_out(exp, target) == (rank > fields)
            assert repr(evaluate(exp, target)) == repr(unscreened_score(exp, target))


def test_screen_counts_a_setup_whose_detector_no_photon_reaches(monkeypatch):
    # No photon reaches a, which has no block, so nothing is compiled or
    # evolved, and a search marks the key screened.
    pairs = (("b", "c"), ("c", "d"), ("b", "d"))
    exp = Experiment(
        elements=tuple(Crystal(ModeLabel(p, 0), ModeLabel(q, 0), g=0.1) for p, q in pairs),
        detectors=("a", "b", "c", "d"),
    )
    target = FidelityTarget(pol_config().target.state)
    assert screens_out(exp, target)
    monkeypatch.setattr(search_module, "_compile", None)
    assert evaluate(exp, target) == 0.0
    # The same setup as a search's only drawn key.
    config = pol_config(budget=1)
    index = {element: i for i, (element, _) in element_table(config.pool).items()}
    key = tuple(index[element] for element in exp.elements)
    monkeypatch.setattr(search_module, "_draw_keys", lambda config, words: [key])
    hits, scores, screened, classes, _, _ = search_module._run_span(config, 0, 1)
    assert scores == {key: 0.0} and screened == {key} and list(classes.values()) == [key]


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


def test_the_five_kind_search_counts_are_pinned():
    # The CI step's five-kind search, serial: ``spdcsim search srv:4,2,2
    # --paths t,a,b,c --parties a,b,c --pool crystal,multimode,shift,phase,relabel
    # --max-elements 6 --budget 20000 --seed 777``, with the CLI's default
    # crystal mode pairs.  A screen that rejects one setup more or less
    # moves ``screened`` and fails here.
    pool = ElementPool(paths=MIXED_CONFIG.pool.paths, kinds=MIXED_CONFIG.pool.kinds)
    config = replace(MIXED_CONFIG, pool=pool, budget=20_000, seed=777)
    hits, stats = search_with_stats(config, workers=1)
    assert (stats.evaluated, stats.classes, stats.cache_hits, stats.screened) == (15437, 14837, 4563, 14768)
    assert stats.histogram == [15415, 22]
    assert len(hits) == stats.accepted == 22


# -- the reach fold ----------------------------------------------------------------


def reference_reach(elements, labels=()):
    """Path -> reached modes by a static pass of its own: sources add their
    labels, a passive element adds its path's modes, moved, to its
    targets, and a target off the path takes every mode its path ever
    gets."""
    modes = {}
    for label in labels:
        modes.setdefault(label.path, set()).add(label.mode)
    joins = []
    for element in elements:
        if isinstance(element, (Crystal, MultimodeCrystal)):
            for pair in crystal_pairs(element):
                for label in pair:
                    modes.setdefault(label.path, set()).add(label.mode)
            continue
        if isinstance(element, ModeShifter):
            path, delta, targets = element.path, element.delta, [element.path]
        elif isinstance(element, PhaseShifter):
            path, delta, targets = element.path, 0, [element.path]
        elif isinstance(element, Relabel):
            path, delta, targets = element.source, 0, [element.target]
        else:
            split = ((element.path, element.transmissivity), (element.loss, element.reflectivity))
            path, delta, targets = element.path, 0, [target for target, c in split if c]
        joins += [(path, target) for target in targets if target != path]
        if path in modes:
            moved = {m + delta for m in modes[path]}
            for target in targets:
                modes.setdefault(target, set()).update(moved)
    sizes = None
    while sizes != (sizes := {path: len(reached) for path, reached in modes.items()}):
        for path, target in joins:
            if path in modes:
                modes.setdefault(target, set()).update(modes[path])
    return modes


def layout_clicks(layout, detectors, target):
    """The screen read off a compiled key layout: every detector has a
    block, and each party's block has at least its rank in fields."""
    blocks = layout.blocks
    if any(path not in blocks for path in detectors):
        return False
    if isinstance(target, SrvTarget):
        return all(party in blocks and blocks[party][2] >= rank for party, rank in zip(target.parties, target.ranks))
    return True


def assert_reach_is_the_layout(reach, exp, target):
    elements, layout = unfolded_compile_run(exp)
    assert reach == reference_reach(elements)
    assert {path: (min(modes), max(modes) - min(modes) + 1) for path, modes in reach.items()} == {
        path: (low, size) for path, (_, low, size) in layout.blocks.items()
    }
    assert search_module._can_click(reach, exp.detectors, target) == layout_clicks(layout, exp.detectors, target)
    # ``run`` compiles the list with its shifts folded into the sources
    # (``compile_run``), on a layout of its own, which need not lie inside
    # this one; but this layout holds every term of that run.
    for occ in run(exp).terms:
        layout.encode(occ)


START_LABELS = [ModeLabel(path, mode) for path in ("t", "a", "b", "c", "d") for mode in (-2, 0, 1, 3)]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(CONFIGS)),
    st.integers(0, 2**32 - 1),
    st.integers(0, 10**6),
    st.lists(st.sampled_from(START_LABELS), max_size=4),
)
def test_the_key_reach_is_the_compiled_layout_on_drawn_keys(name, seed, trial, labels):
    config = replace(CONFIGS[name], seed=seed)
    key = span_keys(config, trial, trial + 1)[0]
    entries = [element_table(config.pool)[index] for index in key]
    steps = [step for _, step in entries]
    exp = Experiment(elements=tuple(element for element, _ in entries), detectors=config.detectors)
    assert_reach_is_the_layout(mode_reach(steps), exp, config.target)
    assert mode_reach(steps, labels) == reference_reach(exp.elements, labels)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CORPUS), st.data())
def test_the_reach_is_the_compiled_layout_on_the_corpus(path, data):
    exp = load_experiment(path.name)
    ranks = tuple(data.draw(st.integers(1, 6)) for _ in exp.detectors)
    reach = mode_reach(map(reach_step, resolve_loss_paths(exp.elements)))
    product = StateVector.from_occupations({ModeLabel(p, 0): 1 for p in exp.detectors})
    for target in (SrvTarget(exp.detectors, ranks), FidelityTarget(product)):
        assert_reach_is_the_layout(reach, exp, target)


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
        if tuple_oracle.matches(occ, pattern):
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
