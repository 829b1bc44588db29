import functools
import hashlib
import importlib
import itertools
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdcsim.analysis import ghz_target, w_target
from spdcsim.elements import Crystal, ModeShifter, MultimodeCrystal, PhaseShifter, Relabel, mode_reach, reach_step
from spdcsim.experiment import Experiment, compile_run, run
from spdcsim.fock import ModeLabel, StateVector
from spdcsim.search import (
    ElementPool,
    FidelityTarget,
    SearchConfig,
    SrvTarget,
    _accepts,
    _run_span,
    evaluate,
    random_setup,
    search,
    search_with_stats,
)

from conftest import load_experiment

# The package re-exports the function ``search`` under the module's name.
search_module = importlib.import_module("spdcsim.search")

POL_POOL = ElementPool(paths=("a", "b", "c", "d"), kinds=("crystal",), crystal_modes=((0, 0), (1, 1)))


MIXED_CONFIG = SearchConfig(
    pool=ElementPool(
        paths=("t", "a", "b", "c"),
        kinds=("crystal", "multimode", "shift", "phase", "relabel"),
        crystal_modes=((0, 0), (0, 1), (1, 0), (1, 1)),
    ),
    detectors=("t", "a", "b", "c"),
    target=SrvTarget(parties=("a", "b", "c"), ranks=(4, 2, 2)),
    max_elements=6,
)


def pol_config(**overrides):
    base = dict(
        pool=POL_POOL,
        detectors=("a", "b", "c", "d"),
        target=FidelityTarget(ghz_target(4, 2), threshold=0.999),
        max_elements=4,
        budget=3000,
        seed=20240817,
    )
    base.update(overrides)
    return SearchConfig(**base)


def test_random_setup_samples_within_the_pool():
    config = pol_config()
    for trial in range(50):
        exp = random_setup(config, trial)
        assert 1 <= len(exp.elements) <= 4
        assert exp.detectors == ("a", "b", "c", "d")
        for element in exp.elements:
            assert isinstance(element, Crystal)
            assert (element.out_a.mode, element.out_b.mode) in ((0, 0), (1, 1))
            assert element.out_a.path != element.out_b.path


def test_random_setup_reaches_four_crystal_layouts():
    config = pol_config()
    sizes = {
        len(random_setup(config, trial).elements)
        for trial in range(200)
    }
    assert sizes == {1, 2, 3, 4}


def test_pool_restriction_to_crystals_and_shifters():
    pool = ElementPool(paths=("a", "b", "c", "d"), kinds=("crystal", "shift"))
    config = pol_config(pool=pool, max_elements=6)
    seen = set()
    for trial in range(100):
        exp = random_setup(config, trial)
        for element in exp.elements:
            assert isinstance(element, (Crystal, ModeShifter))
            seen.add(type(element))
    assert seen == {Crystal, ModeShifter}


@pytest.mark.parametrize(
    "options, message",
    [
        ({"kinds": ()}, "at least one element kind"),
        ({"crystal_modes": ()}, "crystal mode pair"),
        ({"kinds": ("shift", "crystal"), "crystal_modes": ()}, "crystal mode pair"),
        ({"paths": ("a", "b", "a", "d")}, "paths: 'a' appears twice"),
        ({"kinds": ("crystal", "shift", "crystal")}, "kinds: 'crystal' appears twice"),
        ({"crystal_modes": ((0, 0), (1, 1), (0, 0))}, r"crystal_modes: \(0, 0\) appears twice"),
        ({"crystal_modes": ((0,), (1, 1))}, "not a pair of ints"),
        ({"crystal_modes": ((0, 1, 1),)}, "not a pair of ints"),
        ({"crystal_modes": ((0, "x"), (1, 1))}, "not a pair of ints"),
        ({"crystal_modes": ((0, 0.5),)}, "not a pair of ints"),
        ({"kinds": ("shift",), "crystal_modes": (0, 1)}, "not a pair of ints"),
        ({"paths": ("a", "", "c", "d")}, "path name '' is empty"),
        ({"paths": ("a b", "c", "d")}, "path name 'a b' holds whitespace"),
        ({"paths": ("a:1", "c", "d")}, "path name 'a:1' holds"),
        ({"paths": ("a", "b", "loss#0")}, "path name 'loss#0' holds"),
    ],
    ids=[
        "no-kinds",
        "no-crystal-modes",
        "crystal-among-kinds-without-modes",
        "repeated-path",
        "repeated-kind",
        "repeated-mode-pair",
        "one-mode",
        "three-modes",
        "str-mode",
        "float-mode",
        "bare-ints-without-crystals",
        "empty-path-name",
        "path-name-with-space",
        "path-name-with-colon",
        "loss-path-name",
    ],
)
def test_a_pool_that_cannot_draw_its_setups_is_rejected(options, message):
    # Unchecked, an empty crystal block let index 0 fall into the multimode
    # block, empty kinds failed mid-search, a repeated path drew crystals
    # from a path into itself, a repeated kind or mode pair weighted its
    # draws and changed the stream of an equal pool, and a malformed mode
    # pair failed while the search built its symmetry classes (in a worker
    # when there were several).  A path name that the experiment language
    # cannot write gave hits that could not be saved as files.
    with pytest.raises(ValueError, match=message):
        ElementPool(**{"paths": ("a", "b", "c", "d"), **options})


# Exact draws on the five-kind pool: they pin the drawn parameter values
# and the order of the draws.  Together the trials draw every crystal mode
# pair, multimode list, shift and phase.
PINNED_MIXED_DRAWS = {
    (0, 2): (
        Crystal(ModeLabel("a", 1), ModeLabel("t", 0), g=0.1),
        Relabel("a", "t"),
        Crystal(ModeLabel("c", 1), ModeLabel("t", 1), g=0.1),
        MultimodeCrystal("a", "t", modes=(0, 1), g=0.1),
        MultimodeCrystal("a", "c", modes=(0, 1, 2), g=0.1),
        PhaseShifter("b", -1.5707963267948966),
    ),
    (0, 46): (
        Relabel("b", "a"),
        PhaseShifter("b", 1.5707963267948966),
        ModeShifter("b", -1),
        MultimodeCrystal("a", "t", modes=(0, 1, 2, 3), g=0.1),
        PhaseShifter("a", 3.141592653589793),
        Crystal(ModeLabel("b", 0), ModeLabel("c", 0), g=0.1),
    ),
    (0, 51): (
        ModeShifter("c", 1),
        ModeShifter("a", 1),
        Crystal(ModeLabel("a", 0), ModeLabel("c", 1), g=0.1),
        Relabel("b", "t"),
        Relabel("t", "b"),
    ),
    (7, 12): (
        Crystal(ModeLabel("b", 0), ModeLabel("c", 0), g=0.1),
        ModeShifter("c", -1),
        PhaseShifter("t", 1.5707963267948966),
        Relabel("c", "t"),
        Crystal(ModeLabel("b", 1), ModeLabel("t", 0), g=0.1),
        PhaseShifter("t", 1.5707963267948966),
    ),
}


@pytest.mark.parametrize("seed, trial", sorted(PINNED_MIXED_DRAWS))
def test_random_setup_draws_are_pinned(seed, trial):
    exp = random_setup(replace(MIXED_CONFIG, seed=seed), trial)
    assert exp.elements == PINNED_MIXED_DRAWS[seed, trial]
    assert exp.detectors == ("t", "a", "b", "c")
    assert exp.expansion_order == 2


def test_sampler_is_deterministic_per_trial():
    config = pol_config()
    one = [random_setup(config, t) for t in range(20)]
    two = [random_setup(config, t) for t in range(20)]
    assert one == two


def test_evaluate_two_matching_layout_scores_one():
    exp = load_experiment("found_ghz4_polarization.exp")
    assert evaluate(exp, FidelityTarget(ghz_target(4, 2))) == pytest.approx(1.0)
    # As ``fidelity``, a zero target is refused once something is selected.
    with pytest.raises(ValueError, match="fidelity of the zero state is undefined"):
        evaluate(exp, FidelityTarget(StateVector()))


def test_evaluate_empty_experiment_scores_zero():
    exp = Experiment(elements=(), detectors=("a", "b"))
    assert evaluate(exp, FidelityTarget(ghz_target(2, 2, paths=("a", "b")))) == 0.0


def test_evaluate_srv_target():
    exp = Experiment(
        elements=(
            MultimodeCrystal("t", "a", modes=(0, 1, 2, 3), g=0.1),
            MultimodeCrystal("b", "c", modes=(0, 1), g=0.1),
        ),
        detectors=("t", "a", "b", "c"),
    )
    target = SrvTarget(parties=("a", "b", "c"), ranks=(4, 2, 2))
    assert evaluate(exp, target) == 1.0
    assert evaluate(exp, SrvTarget(parties=("a", "b", "c"), ranks=(3, 2, 2))) == 0.0


def test_search_finds_two_matching_layouts():
    hits = search(pol_config())
    assert hits
    assert [h.trial_index for h in hits[:2]] == [147, 790]
    for hit in hits:
        assert hit.score == pytest.approx(1.0)
        assert evaluate(hit.experiment, pol_config().target) >= 0.999


def test_search_is_deterministic_across_runs():
    one = search(pol_config(budget=1500))
    two = search(pol_config(budget=1500))
    assert [h.trial_index for h in one] == [h.trial_index for h in two]
    assert [h.experiment for h in one] == [h.experiment for h in two]


def test_search_hits_are_budget_prefix_monotone():
    small = search(pol_config(budget=800))
    large = search(pol_config(budget=3000))
    assert [h.trial_index for h in large[: len(small)]] == [h.trial_index for h in small]


def test_search_workers_do_not_change_results():
    serial = search(pol_config(budget=1200), workers=1)
    parallel = search(pol_config(budget=1200), workers=4)
    assert [h.trial_index for h in serial] == [h.trial_index for h in parallel]
    assert [h.experiment for h in serial] == [h.experiment for h in parallel]


def test_a_run_state_target_reaches_the_workers():
    # ``run``'s own state, pickled to the workers before anything decodes
    # it; its vacuum term holds every fidelity near 2e-4.
    exp = load_experiment("ghz4_polarization.exp")
    parallel = search(pol_config(budget=1200, target=FidelityTarget(run(exp), threshold=1e-4)), workers=2)
    serial = search(pol_config(budget=1200, target=FidelityTarget(run(exp), threshold=1e-4)), workers=1)
    assert serial
    assert as_tuples(parallel) == as_tuples(serial)


def test_search_with_srv_target_finds_asymmetric_layouts():
    pool = ElementPool(paths=("t", "a", "b", "c"), kinds=("multimode",))
    config = SearchConfig(
        pool=pool,
        detectors=("t", "a", "b", "c"),
        target=SrvTarget(parties=("a", "b", "c"), ranks=(4, 2, 2)),
        max_elements=2,
        budget=2000,
        seed=7,
    )
    hits = search(config)
    assert hits
    for hit in hits[:3]:
        assert evaluate(hit.experiment, config.target) == 1.0


def test_forced_single_trial_hit():
    # Seed 20240817, trial 147 samples a valid two-matching layout; with
    # budget 1 and the stream shifted there, the search returns exactly it.
    config = pol_config(seed=20240817, budget=148)
    hits = search(config)
    assert [h.trial_index for h in hits] == [147]


SOURCELESS_CONFIG = SearchConfig(
    pool=ElementPool(paths=("a", "b"), kinds=("shift", "phase")), detectors=(), target=SrvTarget((), ()), budget=20
)


def test_a_pool_without_sources_still_searches():
    # With no detector every setup passes the screen and compiles the pool
    # layout, which has no field since the pool draws no source; the vacuum
    # then matches the empty target, as ``evaluate`` scores it.
    config = SOURCELESS_CONFIG
    hits = search(config)
    assert [hit.score for hit in hits] == [1.0] * 20
    assert all(evaluate(hit.experiment, config.target) == 1.0 for hit in hits)


def test_a_negative_seed_is_rejected_up_front():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        pol_config(seed=-1)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"detectors": ("a", "b", "c", "e")}, "detectors must be pool paths"),
        ({"target": FidelityTarget(ghz_target(4, 2, paths=("a", "b", "c", "e")))}, "must be on the detectors"),
        ({"target": SrvTarget(parties=("a", "e"), ranks=(2, 2))}, "parties must be detectors"),
    ],
    ids=["detector-outside-the-pool", "target-state-off-the-detectors", "party-no-detector"],
)
def test_a_config_that_can_only_score_0_is_rejected(overrides, message):
    # Unchecked, each searched its whole budget and returned no hit.
    with pytest.raises(ValueError, match=message):
        pol_config(**overrides)


def test_repeated_detectors_are_rejected_up_front():
    # Unchecked, the config built and the search raised from ``Experiment``
    # at its first scored trial.
    with pytest.raises(ValueError, match="detectors must be distinct"):
        SearchConfig(
            pool=ElementPool(paths=tuple("abcd")),
            detectors=("a", "a", "b", "c"),
            target=FidelityTarget(ghz_target(3, 2, paths=("a", "b", "c"))),
            budget=50,
        )


def test_a_detector_on_a_loss_path_is_rejected_up_front():
    # Unchecked, the config built and the search raised from ``Experiment``
    # at its first clickable class, in a worker when there were several.
    # A loss path cannot be a pool path, so no detector can sit on one.
    paths = ("a", "b", "c", "loss#0")
    with pytest.raises(ValueError, match="path name 'loss#0'"):
        SearchConfig(pool=ElementPool(paths=paths), detectors=paths, target=SrvTarget(("a", "b"), (2, 2)))


def test_a_repeated_party_is_rejected():
    with pytest.raises(ValueError, match="parties must be distinct"):
        SrvTarget(parties=("a", "a"), ranks=(2, 2))


# -- the per-trial streams ---------------------------------------------------
# The search draws a chunk of trials at once: ``_Words`` holds their 32-bit
# draws, a row per trial, and ``_draw_keys`` draws their keys.  numpy's
# ``Generator`` is the oracle here and only here: each row must make its
# trial's draws, one for one.

_Words = search_module._Words


def reference_rng(seed, trial):
    """Trial ``trial``'s stream as the search promises it, built with numpy."""
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))


# Entropy lengths SeedSequence treats apart: 0 is the one word [0], and
# from 2**96 on a seed takes four words or more, which with the trial's
# word overflow the four-word pool.
EDGES = (0, 2**32 - 1, 2**32, 2**96, 2**128 + 1)

# ``integers(k)`` rejects a 32-bit draw whose low product word falls below
# ``(2**32 - k) % k``.  For this bound that is 2**30 - 1, so about one draw
# in four is rejected and drawn again.
REJECTING = 3 * 2**30 + 1

# Bounds whose draws show the raw 32-bit words (2**32), the rejection loop
# and small bounds; several bounds in a row use both halves of a 64-bit word.
PROBE = (2**32, REJECTING, 2, 2**32 - 1, 7, 1, 5, REJECTING, 3)


def bounded(words, k):
    """Every row's ``integers(k)``, one vectorised draw."""
    return words.integers(np.full(words.rows, k, dtype=np.uint64)).tolist()


def assert_same_draws(words, references):
    """Each row draws what its reference draws, all rows at once."""
    for k in PROBE:
        assert bounded(words, k) == [int(reference.integers(k)) for reference in references]


def as_ints(hi, lo):
    """128-bit values from their high and low uint64 words."""
    return [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())]


def assert_same_streams(words, references):
    """Each row's PCG64 state is its reference's, then so are its draws."""
    states = [reference.bit_generator.state["state"] for reference in references]
    assert as_ints(words._hi, words._lo) == [state["state"] for state in states]
    assert as_ints(words._inc_hi, words._inc_lo) == [state["inc"] for state in states]
    assert_same_draws(words, references)


def assert_chunks_are_the_streams(seed, start, stop):
    chunks = list(search_module._chunks(seed, start, stop))
    assert sum(words.rows for words in chunks) == stop - start
    for words in chunks:
        assert_same_streams(words, [reference_rng(seed, trial) for trial in range(start, start + words.rows)])
        start += words.rows
    return chunks


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.sampled_from(EDGES), st.integers(0, 2**160)),
    start=st.one_of(st.sampled_from(EDGES), st.integers(2**32 - 60, 2**32), st.integers(0, 2**70)),
    length=st.integers(1, 60),
)
@example(seed=0, start=0, length=1)
@example(seed=2**32 - 1, start=2**32 - 30, length=60)
@example(seed=2**96, start=2**64 - 2, length=4)
@example(seed=2**160, start=2**128 + 1, length=3)
def test_trial_streams_are_the_seed_sequence_streams(seed, start, length):
    assert_chunks_are_the_streams(seed, start, start + length)
    assert_same_streams(_Words(seed, start, start + 1), [reference_rng(seed, start)])


def test_trial_streams_run_on_across_seed_chunks():
    # A chunk boundary, then trial 2**32 inside the next chunk.
    chunk = search_module._CHUNK
    seed, start = 2**96 + 20240817, 2**32 - chunk - chunk // 2
    chunks = assert_chunks_are_the_streams(seed, start, start + 2 * chunk + 7)
    assert [words.rows for words in chunks] == [chunk, chunk // 2, chunk // 2 + 7]


@pytest.mark.parametrize(
    "config, start, stop",
    [(pol_config(), 700, 2400), (pol_config(), 1, 150), (MIXED_CONFIG, 555, 1000)],
    ids=["ghz4-across-chunks", "ghz4-from-1", "mixed"],
)
def test_a_block_draws_what_its_trials_draw_in_a_block_from_0(monkeypatch, config, start, stop):
    # A span from ``start`` cuts its chunks elsewhere than a span from 0.
    draw_keys = search_module._draw_keys
    keys = []

    def recording_draw_keys(config, words):
        drawn = draw_keys(config, words)
        keys.extend(drawn)
        return drawn

    monkeypatch.setattr(search_module, "_draw_keys", recording_draw_keys)
    hits = _run_span(config, start, stop)[0]
    block_keys = keys[:]
    keys.clear()
    whole = _run_span(config, 0, stop)[0]
    assert block_keys == keys[start:]
    assert hits
    assert as_tuples(hits) == [hit for hit in as_tuples(whole) if hit[0] >= start]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.one_of(st.sampled_from(EDGES), st.integers(0, 2**64)),
    trial=st.integers(0, 2**40),
    bounds=st.lists(
        st.one_of(st.sampled_from((1, 2, 3, 5, REJECTING, 2**32 - 1, 2**32)), st.integers(1, 2**32)),
        min_size=1,
        max_size=40,
    ),
)
@example(seed=0, trial=0, bounds=[REJECTING] * 40)
def test_bounded_draws_are_numpys(seed, trial, bounds):
    # Two rows draw with different bounds, one draw at a time.  They start
    # even, so that they do not straddle trial 2**32.
    start = trial - trial % 2
    words, references = _Words(seed, start, start + 2), [reference_rng(seed, start), reference_rng(seed, start + 1)]
    for k, other in zip(bounds, bounds[::-1]):
        drawn = words.integers(np.array([k, other], dtype=np.uint64)).tolist()
        assert drawn == [int(references[0].integers(k)), int(references[1].integers(other))]
    # The streams stand where numpy's do, spare upper halves included.
    for _ in range(3):
        assert bounded(words, 2**32) == [int(reference.integers(2**32)) for reference in references]


@pytest.mark.parametrize("seed", [0, 7, 20240817])
def test_the_rejection_loop_and_the_spare_half_both_run(seed):
    trials = range(5, 5 + 64)
    words, references = _Words(seed, trials[0], trials[-1] + 1), [reference_rng(seed, t) for t in trials]
    drawn = [bounded(words, REJECTING) for _ in range(40)] + [bounded(words, 6) for _ in range(3)]
    expected = [[int(reference.integers(REJECTING)) for reference in references] for _ in range(40)]
    expected += [reference.integers(6, size=3).tolist() for reference in references]
    assert drawn[:40] == expected[:40]
    assert [list(row) for row in zip(*drawn[40:])] == expected[40:]
    # More 32-bit words than values: rows were rejected, each its own
    # number of times, and they outgrew the first word table.  An odd word
    # count leaves the spare upper half of a 64-bit output for the next draw.
    used = (words._at // words.rows).tolist()
    assert min(used) > len(drawn) and len(set(used)) > 1
    assert max(used) > 2 * search_module._OUTPUTS
    assert {count % 2 for count in used} == {0, 1}
    assert_same_draws(words, references)


def relabels(n):
    """A pool that draws one relabel a trial: its key is one ``choice(n, 2, replace=False)``."""
    paths = tuple(f"p{i}" for i in range(n))
    target = SrvTarget(parties=paths[:1], ranks=(1,))
    return SearchConfig(pool=ElementPool(paths=paths, kinds=("relabel",)), detectors=paths, target=target, max_elements=1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_two_of_n_is_choice_without_replacement(n):
    config = relabels(n)
    relabel = search_module._blocks(config.pool)[-1]
    collisions = swaps = 0
    words = _Words(7, 0, 300)
    keys = search_module._draw_keys(config, words)
    references = [reference_rng(7, trial) for trial in range(300)]
    for trial, (key, reference) in enumerate(zip(keys, references)):
        assert divmod(key[0] - relabel, n) == tuple(reference.choice(n, 2, replace=False).tolist())
        # The same draws, one at a time: Floyd's two, then the swap.
        replay = reference_rng(7, trial)
        first, second, swap = (int(replay.integers(k)) for k in (n - 1, n, 2))
        collisions += second == first
        swaps += swap == 0
    assert collisions and swaps
    assert_same_draws(words, references)


@pytest.mark.parametrize("seed", [0, 7, 20240817])
def test_a_one_value_draw_leaves_the_stream_alone(seed):
    # A bound of 1 draws nothing in ``_Words.integers``; that keeps the
    # streams only because numpy's ``integers(1)`` draws nothing either.
    rng = reference_rng(seed, 3)
    rng.integers(5)
    before = rng.bit_generator.state
    assert rng.integers(1) == 0
    assert rng.bit_generator.state == before


def numpy_draw(rng, config, blocks):
    """The draw as the search made it on numpy's ``Generator``: an independent copy."""
    pool = config.pool
    n, multimode, shift, phase, relabel = blocks
    modes = len(pool.crystal_modes)

    def index(k):
        return int(rng.integers(k)) if k > 1 else 0

    def unordered_pair():
        i, j = rng.choice(n, size=2, replace=False).tolist()
        return i * n + j if i < j else j * n + i

    key = []
    for _ in range(int(rng.integers(1, config.max_elements + 1))):
        kind = pool.kinds[index(len(pool.kinds))]
        if kind == "crystal":
            key.append(unordered_pair() * modes + index(modes))
        elif kind == "multimode":
            lists = len(search_module.MULTIMODE_LISTS)
            key.append(multimode + unordered_pair() * lists + index(lists))
        elif kind == "shift":
            deltas = len(search_module.SHIFT_DELTAS)
            key.append(shift + index(n) * deltas + index(deltas))
        elif kind == "phase":
            phases = len(search_module.PHASE_VALUES)
            key.append(phase + index(n) * phases + index(phases))
        else:  # relabel
            source, target = rng.choice(n, size=2, replace=False).tolist()
            key.append(relabel + source * n + target)
    return tuple(key)


def span_keys(config, start, stop):
    """Trials ``start`` to ``stop``'s keys as a span draws them, a chunk at a time."""
    chunks = search_module._chunks(config.seed, start, stop)
    return [key for words in chunks for key in search_module._draw_keys(config, words)]


def numpy_keys(config, start, stop):
    blocks = search_module._blocks(config.pool)
    return [numpy_draw(reference_rng(config.seed, trial), config, blocks) for trial in range(start, stop)]


@functools.cache
def element_table(pool):
    """The element table each span of a search on ``pool`` builds."""
    return search_module._element_table(pool)


def build(key, config):
    """The experiment ``key`` names, as a span of the search ``config`` builds it."""
    return search_module._build(key, config, element_table(config.pool))


def class_tables(config):
    return search_module._class_tables(config, element_table(config.pool))


@pytest.mark.parametrize("seed", [0, 7, 20240817, 2**40 + 3, 2**100 + 5])
@pytest.mark.parametrize("config", [pol_config(), MIXED_CONFIG], ids=["ghz4", "mixed"])
def test_draw_is_the_numpy_draw_key_for_key(config, seed):
    config = replace(config, seed=seed)
    keys = span_keys(config, 0, 1000)
    assert keys == numpy_keys(config, 0, 1000)
    assert len(set(keys)) > 100


@pytest.mark.parametrize("config", [pol_config(), MIXED_CONFIG], ids=["ghz4", "mixed"])
def test_keys_run_on_across_a_chunk_and_trial_2_32(config):
    chunk = search_module._CHUNK
    start, stop = 2**32 - chunk - 5, 2**32 + 40
    assert [words.rows for words in search_module._chunks(config.seed, start, stop)] == [chunk, 5, 40]
    assert span_keys(config, start, stop) == numpy_keys(config, start, stop)


def test_rows_that_outgrow_their_first_word_table_draw_numpys_keys():
    config = replace(MIXED_CONFIG, max_elements=40, seed=11)
    keys = span_keys(config, 0, 300)
    assert keys == numpy_keys(config, 0, 300)
    # Every element draws at least three words: its kind and two parameters.
    assert max(map(len, keys)) * 3 > 2 * search_module._OUTPUTS


def test_random_setup_is_the_searchs_own_draw():
    config = pol_config()
    chunk = search_module._CHUNK
    keys = span_keys(config, 0, chunk + 3)
    for trial in (0, 1, chunk - 1, chunk, chunk + 2):
        assert random_setup(config, trial) == build(keys[trial], config)


def test_a_serial_search_never_imports_numpy_random():
    code = (
        "import sys\n"
        "from spdcsim.cli import main\n"
        "hits = main(['search', 'ghz:4:2', '--budget', '200', '--seed', '20240817'])\n"
        "misses = main(['search', 'srv:4,2,2', '--paths', 't,a,b,c', '--parties', 'a,b,c',\n"
        "               '--pool', 'crystal,multimode,shift,phase,relabel', '--budget', '300'])\n"
        "print(hits, misses, 'numpy.random' in sys.modules)\n"
    )
    src = Path(search_module.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert "hit trial=147" in result.stdout
    assert result.stdout.splitlines()[-1] == "0 1 False"


# -- the score cache ---------------------------------------------------------


def uncached_hits(config):
    """The search without a cache or the chunk draw: draw, build and score every trial."""
    blocks = search_module._blocks(config.pool)
    hits = []
    for trial in range(config.budget):
        key = numpy_draw(reference_rng(config.seed, trial), config, blocks)
        exp = build(key, config)
        score = evaluate(exp, config.target)
        if _accepts(config.target, score):
            hits.append((trial, exp, repr(score)))
    return hits


def as_tuples(hits):
    return [(h.trial_index, h.experiment, repr(h.score)) for h in hits]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("config", [pol_config(), MIXED_CONFIG], ids=["ghz4", "mixed"])
def test_cached_search_equals_the_uncached_loop(config, workers):
    reference = uncached_hits(config)
    assert reference
    assert as_tuples(search(config, workers=workers)) == reference


def drawn_keys(config):
    return span_keys(config, 0, config.budget)


def class_firsts(config, keys):
    """Each class's first drawn key, the one the search simulates for it."""
    canonical = search_module._canonicaliser(class_tables(config))
    firsts = {}
    for key in keys:
        firsts.setdefault(canonical(key), key)
    return firsts


def elements_of(config, key):
    return build(key, config).elements


def clicks(exp, target):
    """The screen's verdict on ``exp``, folded afresh from its elements."""
    return search_module._can_click(mode_reach(map(reach_step, exp.elements)), exp.detectors, target)


def counting(scored, config):
    """A ``_score`` that records each setup it scores and checks two things:
    the key layout it is given is the span's pool layout (``_pool_reach``),
    and its score is the one ``evaluate`` gives on the setup's own layout."""
    score = search_module._score
    pool_reach = search_module._pool_reach(config, element_table(config.pool))
    pool_layout = compile_run(Experiment(detectors=config.detectors), pool_reach)[1]

    def counting_score(compiled, elements):
        exp = Experiment(elements=tuple(elements), detectors=compiled.exp.detectors)
        assert (compiled.layout.blocks, compiled.layout.bound) == (pool_layout.blocks, pool_layout.bound)
        own = search_module._compile(compiled.exp, mode_reach(map(reach_step, elements)), compiled.target)
        result = score(compiled, elements)
        assert repr(result) == repr(score(own, elements))
        scored.append(exp.elements)
        return result

    return counting_score


def test_serial_search_scores_each_symmetry_class_once(monkeypatch):
    config = pol_config(budget=1500)
    scored = []
    monkeypatch.setattr(search_module, "_score", counting(scored, config))
    hits, stats = search_with_stats(config)
    keys = drawn_keys(config)
    firsts = class_firsts(config, keys)
    # The first key of each class that passes the screen, then the own key
    # of each distinct hit that is not its class's first.  A class the
    # screen rejects is never built.
    passing = [key for key in firsts.values() if clicks(build(key, config), config.target)]
    own = {keys[hit.trial_index] for hit in hits} - set(firsts.values())
    assert own and 0 < len(passing) < len(firsts)
    assert Counter(scored) == Counter(elements_of(config, key) for key in [*passing, *own])
    assert stats.classes == len(firsts) < stats.evaluated == len(set(keys))
    assert stats.evaluated + stats.cache_hits == stats.trials == config.budget
    assert stats.cache_hits > 0
    assert sum(stats.histogram) == stats.evaluated
    assert stats.accepted == len(hits)


@pytest.mark.parametrize("offset", [0.0, 5e-10], ids=["at-threshold", "just-above-threshold"])
def test_a_class_score_near_the_threshold_scores_each_own_key(monkeypatch, offset):
    # The most common score strictly between 0 and 1 of a seeded search is
    # shared by keys of one class and more; a threshold at it, or just
    # above it, puts those classes within ``_NEAR`` of the threshold.
    base = pol_config(budget=600)
    scores = _run_span(base, 0, base.budget)[1]
    counts = Counter(score for score in scores.values() if 0.0 < score < 0.999)
    score = counts.most_common(1)[0][0]
    config = replace(base, target=FidelityTarget(base.target.state, threshold=score + offset))
    scored = []
    with monkeypatch.context() as patch:
        patch.setattr(search_module, "_score", counting(scored, config))
        hits = search(config)
    keys = drawn_keys(config)
    firsts = class_firsts(config, keys)
    near = {key for key in keys if scores[key] == score}
    assert len(near) > len(near & set(firsts.values())) > 0
    assert {elements_of(config, key) for key in near} <= set(scored)
    assert as_tuples(hits) == uncached_hits(config)
    assert any(hit.score == score for hit in hits) == (offset == 0.0)


# -- symmetry classes --------------------------------------------------------


def keep(mode):
    return mode


def renames(paths):
    """Each permutation of ``paths`` (identity first) and the rename it makes."""
    for perm in itertools.permutations(range(len(paths))):
        yield perm, dict(zip(paths, (paths[j] for j in perm)))


def admitted(config):
    """The permutations the search keeps, each with its element image table."""
    image_table = search_module._conjugator(config, element_table(config.pool))
    return [
        (perm, table)
        for perm, rename in renames(config.pool.paths)
        if (table := image_table(rename, keep)) is not None
    ]


@pytest.mark.parametrize(
    "target",
    [FidelityTarget(ghz_target(4, 2)), FidelityTarget(w_target(4))],
    ids=["ghz", "w"],
)
def test_a_symmetric_target_on_four_detectors_admits_every_permutation(target):
    perms = [perm for perm, _ in admitted(pol_config(target=target))]
    assert len(perms) == len(set(perms)) == 24
    assert perms[0] == (0, 1, 2, 3)


def test_a_product_target_admits_the_swaps_inside_each_mode():
    product = StateVector.from_occupations({ModeLabel(p, mode): 1 for p, mode in zip("abcd", (0, 0, 1, 1))})
    perms = [perm for perm, _ in admitted(pol_config(target=FidelityTarget(product)))]
    assert sorted(perms) == [(0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3), (1, 0, 3, 2)]


def test_a_rank_target_admits_the_swap_of_equal_ranked_parties():
    # Pool order t, a, b, c: only b and c share a rank.
    assert [perm for perm, _ in admitted(MIXED_CONFIG)] == [(0, 1, 2, 3), (0, 1, 3, 2)]


def test_a_permutation_that_needs_an_undrawable_mode_pair_is_dropped():
    # A crystal gives its mode pair to its paths in name order; every
    # permutation but the identity reverses the names of some pair, and
    # the pool cannot draw the reversed pair (1, 0).
    one_way = pol_config(pool=replace(POL_POOL, crystal_modes=((0, 1),)))
    both_ways = pol_config(pool=replace(POL_POOL, crystal_modes=((0, 1), (1, 0))))
    unit = one_way.target.state.normalized()
    assert sum(search_module._fixes(unit, rename, keep) for _, rename in renames(POL_POOL.paths)) == 24
    assert [perm for perm, _ in admitted(one_way)] == [(0, 1, 2, 3)]
    assert len(admitted(both_ways)) == 24


def test_a_pool_above_the_path_cap_searches_without_symmetry(monkeypatch):
    # Seven paths, three of them undetected: 4! * 3! = 144 permutations
    # would keep the target, but the cap leaves only the identity.  The
    # low threshold gives hits at this budget.
    paths = tuple("abcdefg")
    target = FidelityTarget(ghz_target(4, 2), threshold=0.5)
    config = pol_config(pool=replace(POL_POOL, paths=paths), target=target, budget=2000)
    assert len(paths) > search_module._SYMMETRY_PATHS
    [table] = class_tables(config)
    assert table == tuple(range(len(table)))
    hits, stats = search_with_stats(config)
    assert stats.classes == stats.evaluated
    reference = uncached_hits(config)
    assert reference and as_tuples(hits) == reference
    monkeypatch.setattr(search_module, "_SYMMETRY_PATHS", 7)
    assert len(admitted(config)) == 144
    assert len(class_tables(config)) == 2 * 144
    hits, stats = search_with_stats(config)
    assert stats.classes < stats.evaluated
    assert as_tuples(hits) == reference


def is_drawable(index, pool):
    """Whether ``_draw_keys`` can give ``index``, decoded independently of the search."""
    n, multimode, shift, phase, relabel = search_module._blocks(pool)
    if index >= relabel:
        source, target = divmod(index - relabel, n)
        return "relabel" in pool.kinds and source != target
    if index >= phase:
        return "phase" in pool.kinds
    if index >= shift:
        return "shift" in pool.kinds
    if index >= multimode:
        i, j = divmod((index - multimode) // len(search_module.MULTIMODE_LISTS), n)
        return "multimode" in pool.kinds and i < j
    # The mode pair is ``pool.crystal_modes[index % modes]`` by construction;
    # that it is the one the renamed crystal needs is checked by ``renamed``.
    i, j = divmod(index // len(pool.crystal_modes), n)
    return "crystal" in pool.kinds and i < j


def renamed(element, rename):
    """``element`` with its paths renamed, as a value that ignores a crystal's output order."""
    if isinstance(element, Crystal):
        labels = (element.out_a, element.out_b)
        return "crystal", frozenset(ModeLabel(rename[label.path], label.mode) for label in labels), element.g
    if isinstance(element, MultimodeCrystal):
        return "multimode", frozenset((rename[element.path_a], rename[element.path_b])), element.modes, element.g
    if isinstance(element, ModeShifter):
        return "shift", rename[element.path], element.delta
    if isinstance(element, PhaseShifter):
        return "phase", rename[element.path], element.phi
    return "relabel", rename[element.source], rename[element.target]


# Seeded trials that draw hits: criterion 13's and the five-kind pool's first.
@settings(max_examples=40, deadline=None)
@given(
    config=st.sampled_from([pol_config(), MIXED_CONFIG]),
    seed=st.sampled_from([0, 777, 20240817]),
    trial=st.integers(0, 20000),
)
@example(config=pol_config(), seed=20240817, trial=147)
@example(config=MIXED_CONFIG, seed=777, trial=965)
def test_every_admitted_permutation_keeps_score_screen_and_drawability(config, seed, trial):
    pool, target = config.pool, config.target
    key = span_keys(replace(config, seed=seed), trial, trial + 1)[0]
    setup = build(key, config)
    score = evaluate(setup, target)
    verdict = clicks(setup, target)
    same = {path: path for path in pool.paths}
    pairs = admitted(config)
    for perm, table in pairs:
        moved = tuple(table[index] for index in key)
        assert all(is_drawable(index, pool) for index in moved)
        # The image is the setup with its paths renamed.
        rename = dict(zip(pool.paths, (pool.paths[j] for j in perm)))
        moved_setup = build(moved, config)
        assert [renamed(e, rename) for e in setup.elements] == [renamed(e, same) for e in moved_setup.elements]
        assert evaluate(moved_setup, target) == pytest.approx(score, abs=1e-9)
        assert clicks(moved_setup, target) == verdict
    canonical = search_module._canonicaliser([table for _, table in pairs])(key)
    assert canonical == min(tuple(table[index] for index in key) for _, table in pairs)
    assert all(is_drawable(index, pool) for index in canonical)


# -- the mode reflection ------------------------------------------------------

# Crystals, shifts, phases and relabels on modes 0 and 1 with a rank target:
# the reflection holds and sends each shift's delta to its negative.
SHIFT_CONFIG = SearchConfig(
    pool=ElementPool(paths=tuple("abcd"), kinds=("crystal", "shift", "phase", "relabel")),
    detectors=("a", "b"),
    target=SrvTarget(parties=("a", "b"), ranks=(2, 2)),
    max_elements=6,
)


def mirror_of(pool):
    """The mode mirror ``m -> c - m``, ``c`` the least plus the greatest mode the pool's sources name."""
    modes = [m for pair in pool.crystal_modes for m in pair] if "crystal" in pool.kinds else []
    if "multimode" in pool.kinds:
        modes += [m for listed in search_module.MULTIMODE_LISTS for m in listed]
    c = min(modes) + max(modes)
    return lambda m: c - m


def reflection(config):
    """The mirror's image table, or None where the search refuses it."""
    paths = config.pool.paths
    image_table = search_module._conjugator(config, element_table(config.pool))
    return image_table(dict(zip(paths, paths)), mirror_of(config.pool))


def test_criterion_13s_pool_admits_the_reflection():
    config = pol_config()
    assert reflection(config) is not None
    assert len(class_tables(config)) == 2 * len(admitted(config)) == 48


@pytest.mark.parametrize(
    "config",
    [
        pol_config(target=FidelityTarget(w_target(4))),
        pol_config(target=FidelityTarget(StateVector.from_occupations({ModeLabel(p, 0): 1 for p in "abcd"}))),
        MIXED_CONFIG,
        pol_config(pool=replace(POL_POOL, crystal_modes=((0, 1),))),
    ],
    # W and the product state move under the mirror; the five-kind pool's
    # c = 3 sends crystal (0, 0) to (3, 3), and the one-way pool's c = 1
    # sends (0, 1) to (1, 0), neither drawable.
    ids=["w", "product", "mixed", "one-way-mode-pair"],
)
def test_a_moved_target_or_an_undrawable_image_refuses_the_reflection(config):
    assert reflection(config) is None
    assert len(class_tables(config)) == len(admitted(config))


def test_a_pool_above_the_path_cap_refuses_the_reflection(monkeypatch):
    config = pol_config(pool=replace(POL_POOL, paths=tuple("abcdefg")))
    assert reflection(config) is not None
    assert len(class_tables(config)) == 1
    monkeypatch.setattr(search_module, "_SYMMETRY_PATHS", 7)
    assert len(class_tables(config)) == 2 * len(admitted(config))


def moved(element, rename, mirror):
    """``element`` with its paths renamed and each mode ``m`` sent to ``mirror(m)``,
    as a value that ignores a crystal's output order and a mode list's order."""
    if isinstance(element, Crystal):
        labels = (element.out_a, element.out_b)
        return "crystal", frozenset(ModeLabel(rename[label.path], mirror(label.mode)) for label in labels), element.g
    if isinstance(element, MultimodeCrystal):
        paths = frozenset((rename[element.path_a], rename[element.path_b]))
        return "multimode", paths, tuple(sorted(map(mirror, element.modes))), element.g
    if isinstance(element, ModeShifter):
        return "shift", rename[element.path], mirror(element.delta) - mirror(0)
    return renamed(element, rename)


def test_conjugating_a_multimode_crystal_sorts_its_mirrored_mode_list():
    # Every drawable mode list starts at mode 0, so no pool that draws
    # multimode crystals admits the mirror, and no search meets this case.
    element = MultimodeCrystal("a", "b", (0, 1, 2))
    image = search_module._conjugate(element, {"a": "b", "b": "a"}, lambda m: 3 - m)
    assert image == MultimodeCrystal("a", "b", (1, 2, 3))


def class_symmetries(config):
    """Each class table's path permutation and mode map, in ``_class_tables``' order."""
    pairs = [(perm, keep, table) for perm, table in admitted(config)]
    mirrored = reflection(config)
    if mirrored is not None:
        mirror = mirror_of(config.pool)
        pairs += [(perm, mirror, tuple(mirrored[index] for index in table)) for perm, _, table in pairs]
    assert [table for _, _, table in pairs] == class_tables(config)
    return pairs


@settings(max_examples=40, deadline=None)
@given(
    config=st.sampled_from([pol_config(), MIXED_CONFIG, SHIFT_CONFIG]),
    seed=st.sampled_from([0, 777, 20240817]),
    trial=st.integers(0, 20000),
)
@example(config=pol_config(), seed=20240817, trial=147)
@example(config=SHIFT_CONFIG, seed=0, trial=136)  # a hit with a shifter
def test_every_class_table_keeps_score_screen_and_drawability(config, seed, trial):
    pool, target = config.pool, config.target
    key = span_keys(replace(config, seed=seed), trial, trial + 1)[0]
    setup = build(key, config)
    score = evaluate(setup, target)
    verdict = clicks(setup, target)
    same = {path: path for path in pool.paths}
    symmetries = class_symmetries(config)
    tables = [table for _, _, table in symmetries]
    assert search_module._canonicaliser(tables)(key) == min(tuple(table[index] for index in key) for table in tables)
    for perm, mirror, table in symmetries:
        image = tuple(table[index] for index in key)
        assert all(is_drawable(index, pool) for index in image)
        # The image is the setup with its paths renamed and its modes mirrored.
        rename = dict(zip(pool.paths, (pool.paths[j] for j in perm)))
        image_setup = build(image, config)
        assert [moved(e, rename, mirror) for e in setup.elements] == [renamed(e, same) for e in image_setup.elements]
        assert evaluate(image_setup, target) == pytest.approx(score, abs=1e-9)
        assert clicks(image_setup, target) == verdict


PRODUCT = StateVector.from_occupations({ModeLabel(p, mode): 1 for p, mode in zip("abcd", (0, 0, 1, 1))})
PRODUCT_0 = StateVector.from_occupations({ModeLabel(p, 0): 1 for p in "abcd"})
SIX_PATHS = tuple("tabcde")
SIX_PATH_RANKS = SearchConfig(
    pool=ElementPool(paths=SIX_PATHS, kinds=("crystal", "multimode", "shift", "phase", "relabel")),
    detectors=SIX_PATHS,
    target=SrvTarget(parties=SIX_PATHS, ranks=(2,) * 6),
)

# Each pool's class tables restricted to its drawable indices (an undrawable
# index names no element, so no table's entry there means anything): the
# table count and a sha256 of the sorted distinct tables.  The digests were
# taken from an index-arithmetic construction of the tables that shared no
# code with the conjugation rule.
PINNED_TABLES = {
    "ghz": (
        pol_config(),
        48,
        "af17cc58d13dc3adc319c42703f9528bd9a323b2e784f07bfbb71142e257d6f0",
    ),
    "w": (
        pol_config(target=FidelityTarget(w_target(4))),
        24,
        "4ecd7546e8c1f6978eb8ec30c8ab9effd0a54ee3abb8e56542a0a6783d5bc5b5",
    ),
    "product": (
        pol_config(target=FidelityTarget(PRODUCT)),
        4,
        "9292a127f486060f6b71364fd887cb5c4020dc30ca7e859795baec02d2ee30ac",
    ),
    "product-in-mode-0": (
        pol_config(target=FidelityTarget(PRODUCT_0)),
        24,
        "4ecd7546e8c1f6978eb8ec30c8ab9effd0a54ee3abb8e56542a0a6783d5bc5b5",
    ),
    "one-way-mode-pair": (
        pol_config(pool=replace(POL_POOL, crystal_modes=((0, 1),))),
        1,
        "0cb11e61a2ac81a08de39d16da02b0b432ea91456c23ce9fc138e97456f3170e",
    ),
    "both-ways-mode-pairs": (
        pol_config(pool=replace(POL_POOL, crystal_modes=((0, 1), (1, 0)))),
        48,
        "2c1e06dab38a048c67044c268124c3e5bfcb459326948d94f8be5d1ca6c4d892",
    ),
    "mixed": (
        MIXED_CONFIG,
        2,
        "e99535e9db3f76cda3503337caec052bd1d8f93735eb03d5b56f1c0e1faffc46",
    ),
    "shift": (
        SHIFT_CONFIG,
        8,
        "def87910f28397f2a8d95142a2b1c95cb9d119714db669ac9395efd37ac36dec",
    ),
    # The mirror m -> 2 - m swaps the two mode pairs; every permutation
    # reverses some pair of paths, and neither mode pair reversed is drawable.
    "mirrored-mode-pairs-ranks": (
        SearchConfig(
            pool=ElementPool(paths=tuple("abcd"), crystal_modes=((0, 1), (2, 1))),
            detectors=tuple("abcd"),
            target=SrvTarget(tuple("abcd"), (2, 2, 2, 2)),
        ),
        2,
        "a19bbcd31b52759f813747e9d4be757ab350b4ad041c2ce8babd28bb9dd90588",
    ),
    # Swapping t and the undetected u keeps each party's rank, not the detectors.
    "undetected-path-ranks": (
        SearchConfig(pool=ElementPool(paths=tuple("tabu")), detectors=tuple("tab"), target=SrvTarget(("a", "b"), (2, 2))),
        4,
        "7d0182dc95fd0114b324d93c7deb47190a7ee6fea732f8e8b6e0ad474980d08c",
    ),
    "above-the-path-cap": (
        pol_config(pool=replace(POL_POOL, paths=tuple("abcdefg"))),
        1,
        "8ca283cd7c54b409b4698f891a765f1b5c201ae782d4c81ff6038f2903041026",
    ),
    "six-path-five-kind-ranks": (
        SIX_PATH_RANKS,
        720,
        "87512cbcdf57dcd8436196ba59d01b916fa648b37a7618bf7f0e3a14437d21aa",
    ),
    "six-path-crystal-ranks": (
        replace(SIX_PATH_RANKS, pool=ElementPool(paths=SIX_PATHS)),
        1440,
        "24ca0b1c6fff7de518cc3aa5bd30a0b116b820073b9cb393c75d8cdc6b0e598a",
    ),
}


def table_digest(config):
    pool = config.pool
    n, relabel = len(pool.paths), search_module._blocks(pool)[-1]
    drawable = [index for index in range(relabel + n * n) if is_drawable(index, pool)]
    tables = class_tables(config)
    restricted = sorted({tuple(table[index] for index in drawable) for table in tables})
    text = "\n".join(",".join(map(str, table)) for table in restricted)
    return len(tables), hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_TABLES))
def test_class_tables_are_pinned(name):
    config, count, digest = PINNED_TABLES[name]
    assert table_digest(config) == (count, digest)


@pytest.mark.parametrize("config", [pol_config(), replace(SHIFT_CONFIG, budget=3000)], ids=["ghz4", "shift"])
def test_the_reflection_only_merges_classes(monkeypatch, config):
    timing = ("draw_s", "score_s", "trials_per_s")
    runs = []
    for tables in (search_module._class_tables, lambda config, table: [image for _, image in admitted(config)]):
        monkeypatch.setattr(search_module, "_class_tables", tables)
        hits, stats = search_with_stats(config)
        record = {name: value for name, value in stats.record().items() if name not in timing}
        runs.append((as_tuples(hits), record))
    (mirrored_hits, mirrored), (plain_hits, plain) = runs
    assert mirrored_hits and mirrored_hits == plain_hits
    assert mirrored.pop("classes") < plain.pop("classes")
    assert mirrored == plain


# Two paths and two mode pairs: most trials draw one of six keys, and the
# two that make a Bell state are hits, repeated across chunks and inside one.
BELL_CONFIG = SearchConfig(
    pool=ElementPool(paths=("a", "b")),
    detectors=("a", "b"),
    target=FidelityTarget(ghz_target(2, 2, paths=("a", "b"))),
    max_elements=2,
    budget=300,
)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("config", [pol_config(), MIXED_CONFIG, BELL_CONFIG], ids=["ghz4", "mixed", "bell"])
def test_hits_and_counts_do_not_depend_on_the_chunk_size(monkeypatch, config, chunk):
    # A span scores a chunk's new keys, then collects its hits: chunks of 1
    # put every repeat of a key in a later chunk, chunks of 7 cut the span
    # elsewhere and repeat keys inside a chunk.
    keys = drawn_keys(config)
    if chunk > 1:
        assert any(len(set(keys[at : at + chunk])) < chunk for at in range(0, len(keys), chunk))
    timing = ("draw_s", "score_s", "trials_per_s")
    runs = []
    for size in (search_module._CHUNK, chunk):
        monkeypatch.setattr(search_module, "_CHUNK", size)
        hits, stats = search_with_stats(config)
        record = {name: value for name, value in stats.record().items() if name not in timing}
        runs.append((as_tuples(hits), record))
    (default_hits, default), (chunked_hits, chunked) = runs
    assert default_hits and chunked_hits == default_hits
    assert chunked == default
    if config is BELL_CONFIG:
        # A hit key recurs in later chunks, and inside a chunk of 7.
        trials = [trial for trial, _, _ in default_hits]
        assert len({keys[trial] for trial in trials}) < len(trials)
        assert len({(trial // 7, keys[trial]) for trial in trials}) < len(trials)


def test_parallel_stats_are_the_serial_stats():
    # Each span keeps its own cache, but the stats count the union of what
    # the spans scored, so only the times depend on the worker count.
    timing = ("draw_s", "score_s", "trials_per_s")
    runs = []
    for workers in (1, 3):
        hits, stats = search_with_stats(MIXED_CONFIG, workers=workers)
        record = {name: value for name, value in stats.record().items() if name not in timing}
        runs.append((as_tuples(hits), record))
    (serial_hits, serial), (parallel_hits, parallel) = runs
    assert serial_hits and parallel_hits == serial_hits
    assert 0 < serial["screened"] < serial["evaluated"] < serial["trials"]
    assert parallel == serial


NARROWED_CONFIG = SearchConfig(
    pool=ElementPool(paths=("a", "b", "c", "d"), kinds=("crystal", "shift", "phase"), crystal_modes=((0, 0), (0, 1))),
    detectors=("a", "b", "c", "d"),
    target=FidelityTarget(ghz_target(4, 2), 0.5),
    max_elements=4,
    budget=3000,
    seed=5,
)

# Each pool's span scores: the distinct-key count and a sha256 of the sorted
# ``key score.hex()`` lines.  Taken before the search scored setups on
# packed keys, from ``evaluate`` on built experiments.
PINNED_SCORES = {
    "ghz4": (pol_config(budget=3000), 1506, "80ac5a7228d080bb22fe04c2cf08566f57c70498565a1f37050e27e8af356872"),
    "mixed": (
        replace(MIXED_CONFIG, budget=2000),
        1731,
        "5e2be11c4c96277e9eb567883862a943e854e91527aba7ee90dcd81b32082f43",
    ),
    # The widest pool layout: shifts widen every path's modes by 9 each side.
    # Taken while the search still compiled one layout per reach extent.
    "mixed-ten-elements": (
        replace(MIXED_CONFIG, max_elements=10, budget=4000, seed=777),
        3662,
        "db1151f18cf7728b62882588d9ca1b4cb2e5cbdaf1abd33edb48de3959e32f7f",
    ),
    # A layout the reach fold narrows: path ``a`` is always a crystal's first
    # path, so its source mode is 0 alone, and it spans -3..3, not -3..4.
    # Taken while the pool layout was the range formula of ``range_pool_reach``.
    "narrowed": (NARROWED_CONFIG, 2019, "91ecdac9e808a2ee8abc0223e4fac333fe5a62753861c571403e11651725f7c3"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCORES))
def test_span_scores_are_pinned(name):
    config, count, digest = PINNED_SCORES[name]
    scores = _run_span(config, 0, config.budget)[1]
    text = "\n".join(f"{','.join(map(str, key))} {score.hex()}" for key, score in sorted(scores.items()))
    assert (len(scores), hashlib.sha256(text.encode()).hexdigest()) == (count, digest)


# -- the pool layout -----------------------------------------------------------------

POOL_CONFIGS = {
    (name, size): replace(config, max_elements=size)
    for name, config in (
        ("ghz4", pol_config()),
        ("mixed", MIXED_CONFIG),
        ("narrowed", NARROWED_CONFIG),
        ("sourceless", SOURCELESS_CONFIG),
    )
    for size in (4, 6, 10)
}


@functools.cache
def pool_compiled(name, size):
    """The span's one compiled layout and target for a ``POOL_CONFIGS`` search."""
    config = POOL_CONFIGS[name, size]
    settings = Experiment(detectors=config.detectors)
    return search_module._compile(settings, search_module._pool_reach(config, element_table(config.pool)), config.target)


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(sorted(POOL_CONFIGS)),
    seed=st.sampled_from([0, 777, 20240817]),
    trial=st.integers(0, 20000),
)
@example(case=("ghz4", 4), seed=20240817, trial=147)
@example(case=("mixed", 10), seed=777, trial=313)
def test_the_pool_layout_holds_every_reach_and_scores_as_evaluate(case, seed, trial):
    # Every setup a span draws is scored on one layout over its pool's reach,
    # whose extra fields stay empty, so the score is the own layout's bit for bit.
    config = replace(POOL_CONFIGS[case], seed=seed)
    key = span_keys(config, trial, trial + 1)[0]
    table = element_table(config.pool)
    reach = mode_reach([table[index][1] for index in key])
    pool_reach = search_module._pool_reach(config, table)
    assert all(modes <= pool_reach.get(path, set()) for path, modes in reach.items())
    setup = build(key, config)
    score = search_module._score(pool_compiled(*case), setup.elements)
    assert repr(score) == repr(evaluate(setup, config.target))


def range_pool_reach(config):
    """The pool reach as a range formula: on every pool path, the least to
    the greatest mode the pool's sources name, widened on each side by
    ``max_elements - 1`` of the largest shift when the pool draws shifts.
    Sound only while the search draws no misalignment, relabels only
    between pool paths, and moves modes only by shifts."""
    pool = config.pool
    modes = list(itertools.chain(*pool.crystal_modes)) if "crystal" in pool.kinds else []
    if "multimode" in pool.kinds:
        modes += itertools.chain(*search_module.MULTIMODE_LISTS)
    spread = (config.max_elements - 1) * max(map(abs, search_module.SHIFT_DELTAS)) if "shift" in pool.kinds else 0
    span = range(min(modes, default=0) - spread, max(modes, default=0) + spread + 1)
    return dict.fromkeys(pool.paths, span)


@st.composite
def search_pools(draw):
    """A search over 2 to 6 paths, any kinds, crystal mode pairs from modes
    0 to 5 and 1 to 10 elements, detecting nothing, so any pool is valid."""
    paths = draw(st.permutations("tabcde"))[: draw(st.integers(2, 6))]
    kinds = draw(st.lists(st.sampled_from(["crystal", "multimode", "shift", "phase", "relabel"]), min_size=1, unique=True))
    pairs = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=4, unique=True))
    return SearchConfig(
        pool=ElementPool(paths=tuple(paths), kinds=tuple(kinds), crystal_modes=tuple(pairs)),
        detectors=(),
        target=SrvTarget((), ()),
        max_elements=draw(st.integers(1, 10)),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=200, deadline=None)
@given(config=search_pools(), trial=st.integers(0, 2**32), data=st.data())
def test_the_pool_reach_holds_every_key_and_lies_inside_the_range_formula(config, trial, data):
    table = element_table(config.pool)
    pool_reach = search_module._pool_reach(config, table)
    # Keys the search draws; a key of any table indices; and a source, then
    # one passive step as often as a key allows, which moves photons furthest.
    keys = span_keys(config, trial, trial + 32)
    keys.append(data.draw(st.lists(st.sampled_from(sorted(table)), min_size=1, max_size=config.max_elements)))
    sources = [index for index, (_, step) in table.items() if step[0] is None]
    passive = [index for index in table if index not in sources]
    if sources and passive:
        source, step = data.draw(st.sampled_from(sources)), data.draw(st.sampled_from(passive))
        keys.append((source,) + (step,) * (config.max_elements - 1))
    for key in keys:
        reach = mode_reach([table[index][1] for index in key])
        assert all(modes <= pool_reach.get(path, set()) for path, modes in reach.items())
    ranges = range_pool_reach(config)
    assert all(modes <= set(ranges[path]) for path, modes in pool_reach.items())


# The pools of the benchmark's search workloads and of the CI's searches:
# criterion 13's (searched for GHZ(4,2) and for ranks 2,2,2,2), and the
# five-kind pool at 6 and 10 elements.
MEASURED_POOLS = {
    "ghz4": pol_config(),
    "mixed": MIXED_CONFIG,
    "mixed-ten-elements": replace(MIXED_CONFIG, max_elements=10),
}


@pytest.mark.parametrize("name", sorted(MEASURED_POOLS))
def test_the_measured_pools_compile_the_range_formulas_layout(name):
    config = MEASURED_POOLS[name]
    settings = Experiment(detectors=config.detectors)
    fold = compile_run(settings, search_module._pool_reach(config, element_table(config.pool)))[1]
    assert fold.labels == compile_run(settings, range_pool_reach(config))[1].labels


@pytest.mark.parametrize("workers", [1, 2])
def test_searches_sharing_key_layouts_score_their_own_targets(monkeypatch, workers):
    # Same pool, seed and detectors, so the searches draw the same keys and
    # compile the same key layout; a compiled target kept from one search
    # would score the next.
    compile_step = search_module._compile
    compiled = []

    def recording_compile(exp, reach, target):
        compiled[-1].append(frozenset((path, min(m), max(m)) for path, m in reach.items()))
        return compile_step(exp, reach, target)

    configs = [
        pol_config(budget=1500),
        pol_config(budget=1500, target=SrvTarget(tuple("abcd"), (2, 2, 2, 2))),
        pol_config(budget=1500, target=FidelityTarget(ghz_target(4, 2), threshold=0.5)),
    ]
    runs = []
    for config in configs:
        compiled.append([])
        with monkeypatch.context() as patch:
            patch.setattr(search_module, "_compile", recording_compile)
            runs.append(as_tuples(search(config, workers=workers)))
    for config, hits in zip(configs, runs):
        assert hits and hits == uncached_hits(config)
    assert runs[0] != runs[1] and runs[0] != runs[2] and runs[1] != runs[2]
    if workers == 1:
        # Each search compiles one layout, its pool's, and they share it.
        assert all(len(extents) == 1 for extents in compiled)
        assert compiled[0] == compiled[1] == compiled[2]


def test_a_serial_search_loads_no_process_pool():
    code = (
        "import sys\n"
        "import spdcsim\n"
        "from spdcsim.cli import main\n"
        "loaded = lambda: [name for name in ('concurrent.futures', 'multiprocessing') if name in sys.modules]\n"
        "imported = loaded()\n"
        "main(['search', 'ghz:4:2', '--budget', '200', '--seed', '20240817'])\n"
        "print(imported, loaded())\n"
    )
    src = Path(search_module.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert "hit trial=147" in result.stdout
    assert result.stdout.splitlines()[-1] == "[] []"


def test_equal_elements_are_shared_within_a_search():
    hits = search(pol_config())
    seen = {}
    for hit in hits:
        for element in hit.experiment.elements:
            assert seen.setdefault(element, element) is element


@pytest.mark.parametrize("workers", [1, 2])
def test_no_score_survives_into_the_next_search(workers):
    # Same seed and pool, so the two searches draw the same keys; a score
    # cached under the first target would turn up as a hit of the second.
    ghz = pol_config(budget=1500)
    product = pol_config(
        budget=1500,
        target=FidelityTarget(StateVector.from_occupations({ModeLabel(p, 0): 1 for p in "abcd"})),
    )
    first = as_tuples(search(ghz, workers=workers))
    second = as_tuples(search(product, workers=workers))
    assert first == uncached_hits(ghz)
    assert second == uncached_hits(product)
    assert first and second and first != second
